package remote

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestQueryManyAnswersEachStatement: one query request pays the latency
// once and answers every statement in its own frame; a statement's error is
// its own, and the connection stays usable.
func TestQueryManyAnswersEachStatement(t *testing.T) {
	const latency = 40 * time.Millisecond
	srv := startServer(t, Config{Latency: latency})
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	answers, err := c.QueryMany(context.Background(), []string{
		`(aggregate (table flights) (groupby carrier) (aggs (n count *)))`,
		`(table nosuch)`,
		`(aggregate (table flights) (groupby) (aggs (n count *)))`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= 2*latency {
		t.Errorf("three statements took %v: the latency must be paid once per request", el)
	}
	if len(answers) != 3 {
		t.Fatalf("%d answers, want 3", len(answers))
	}
	if answers[0].Err != nil || answers[0].Result.N == 0 || answers[0].ExecNS <= 0 {
		t.Errorf("first statement: %+v", answers[0])
	}
	if answers[1].Err == nil || !strings.Contains(answers[1].Err.Error(), "not found") {
		t.Errorf("second statement err = %v, want its own query error", answers[1].Err)
	}
	if answers[2].Err != nil || answers[2].Result.Value(0, 0).I != 5000 {
		t.Errorf("third statement after a failed one: %+v", answers[2])
	}
	if st := srv.Stats(); st.Requests != 1 || st.Queries != 3 {
		t.Errorf("server stats = %+v, want 1 request carrying 3 statements", st)
	}
	if c.Closed() {
		t.Fatal("a statement's error must not break the connection")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
}
