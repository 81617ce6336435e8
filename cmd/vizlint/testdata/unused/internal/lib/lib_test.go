package lib

import (
	"testing"

	"vizq/internal/orphan"
)

func TestOnlyCaller(t *testing.T) {
	thing{}.Orphan()
	_ = OnlyTested() + recurse(1) + orphan.Answer
	_ = New(Config{TestOnly: 1})
}
