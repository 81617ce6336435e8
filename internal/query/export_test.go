package query

import "vizq/internal/tde/storage"

// Implies reports whether rows satisfying f necessarily satisfy g.
func (f Filter) Implies(g Filter, typ storage.Type, coll storage.Collation) bool {
	implies, _ := f.Relate(g, typ, coll)
	return implies
}

// Equals reports whether f and g provably select the same rows.
func (f Filter) Equals(g Filter, typ storage.Type, coll storage.Collation) bool {
	implies, implied := f.Relate(g, typ, coll)
	return implies && implied
}
