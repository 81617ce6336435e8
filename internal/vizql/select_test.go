package vizql

import (
	"fmt"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// TestSplitHeldOnePass: validating a 300-value selection against a
// 10^4-row source result keeps exactly the values the CI column still holds,
// whatever their case, and allocates O(rows + values), not O(rows × values).
func TestSplitHeldOnePass(t *testing.T) {
	const rows = 10_000
	res := exec.NewResult([]plan.ColInfo{{Name: "market", Type: storage.TStr, Coll: storage.CollCI},
		{Name: "n", Type: storage.TInt}})
	for i := 0; i < rows; i++ {
		res.AppendRow([]storage.Value{storage.StrValue(fmt.Sprintf("MKT-%05d", i)), storage.IntValue(1)})
	}
	var sel []storage.Value
	for i := 0; i < 300; i++ {
		m := fmt.Sprintf("mkt-%05d", i*33)
		if i%10 == 9 {
			m = fmt.Sprintf("gone-%d", i) // vanished from the source
		}
		sel = append(sel, storage.StrValue(m))
	}
	sel = append(sel, sel[0], storage.NullValue(storage.TStr))

	kept, lost := splitHeld(res, 0, append([]storage.Value(nil), sel...))
	if len(kept) != 271 || len(lost) != 31 {
		t.Fatalf("kept %d, lost %d; want 271 and 31", len(kept), len(lost))
	}
	for _, v := range lost {
		if !v.Null && !strings.HasPrefix(v.S, "gone-") {
			t.Errorf("lost %q, which the source holds", v.S)
		}
	}

	buf := make([]storage.Value, len(sel))
	allocs := testing.AllocsPerRun(5, func() {
		copy(buf, sel)
		splitHeld(res, 0, buf)
	})
	if allocs >= rows+float64(len(sel)) {
		t.Errorf("splitHeld allocated %.0f times for %d rows and %d values", allocs, rows, len(sel))
	}
}
