package lib

// Used is called from cmd/app.
func Used() {
	f := asValue // a use as a value is a reference
	f()
	_ = show(thing{})
}

func asValue() {}

type namer interface{ Name() string }

func show(n namer) string { return n.Name() }

type thing struct{}

// Name is reached only through the interface, by a selector of its name.
func (thing) Name() string { return "thing" }

// Orphan is called by lib_test.go alone.
func (thing) Orphan() {} // want: unused

// OnlyTested is called by lib_test.go alone.
func OnlyTested() int { return 1 } // want: unused

// recurse calls only itself, which is no caller.
func recurse(n int) int { // want: unused
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// Kept is test support other packages' tests share.
//
//vizlint:allow unused -- shared test support
func Kept() {}

// FromBench is called only by the benchmark, which counts as a caller.
func FromBench() {}

// Config is lib's option struct: an exported field no non-test file of
// another package sets is reported.
type Config struct {
	Defaulted int // want: unused (only withDefaults, in lib itself, sets it)
	TestOnly  int // want: unused (only lib_test.go sets it)
	Literal   int // set by cmd/app's composite literal
	Assigned  int // set by cmd/app's assignment
	//vizlint:allow unused -- fixture: an allowed field
	Allowed int
}

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	return c
}

// New applies the defaults.
func New(c Config) Config { return c.withDefaults() }

// Shadow is no option struct; its field shares a name with Config's.
type Shadow struct{ Defaulted int }
