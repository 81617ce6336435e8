// Package workload generates the synthetic FAA-style flights dataset and the
// dashboard interaction workloads used throughout the tests, examples and
// benchmarks. The paper's running example (Figs. 1-2) is a dashboard over
// the FAA Flights On-Time dataset; this generator reproduces its schema and
// value distributions deterministically from a seed.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"vizq/internal/tde/storage"
)

// FlightsConfig parameterizes the generator.
type FlightsConfig struct {
	Rows int
	Days int
	Seed int64
	// Carriers bounds the carrier dimension size (max len(carrierNames)).
	//
	//vizlint:allow unused -- DefaultFlightsConfig sizes the shared test data set with it
	Carriers int
	// Airports bounds the airport dimension size (max len(airportCodes)).
	//
	//vizlint:allow unused -- DefaultFlightsConfig sizes the shared test data set with it
	Airports int
}

// DefaultFlightsConfig is sized for unit tests; benchmarks scale Rows up.
//
//vizlint:allow unused -- the shared data set of the engine, opt and vizql tests
func DefaultFlightsConfig() FlightsConfig {
	return FlightsConfig{Rows: 20_000, Days: 120, Seed: 1, Carriers: 10, Airports: 30}
}

var carrierNames = []struct{ code, name string }{
	{"WN", "Southwest Airlines"},
	{"AA", "American Airlines"},
	{"DL", "Delta Air Lines"},
	{"UA", "United Airlines"},
	{"US", "US Airways"},
	{"B6", "JetBlue Airways"},
	{"AS", "Alaska Airlines"},
	{"NK", "Spirit Airlines"},
	{"F9", "Frontier Airlines"},
	{"HA", "Hawaiian Airlines"},
	{"VX", "Virgin America"},
	{"EV", "ExpressJet"},
}

var airportCodes = []struct{ code, state string }{
	{"ATL", "GA"}, {"LAX", "CA"}, {"ORD", "IL"}, {"DFW", "TX"}, {"DEN", "CO"},
	{"JFK", "NY"}, {"SFO", "CA"}, {"SEA", "WA"}, {"LAS", "NV"}, {"MCO", "FL"},
	{"EWR", "NJ"}, {"CLT", "NC"}, {"PHX", "AZ"}, {"IAH", "TX"}, {"MIA", "FL"},
	{"BOS", "MA"}, {"MSP", "MN"}, {"FLL", "FL"}, {"DTW", "MI"}, {"PHL", "PA"},
	{"LGA", "NY"}, {"BWI", "MD"}, {"SLC", "UT"}, {"SAN", "CA"}, {"IAD", "VA"},
	{"DCA", "VA"}, {"MDW", "IL"}, {"TPA", "FL"}, {"PDX", "OR"}, {"HNL", "HI"},
	{"OGG", "HI"}, {"STL", "MO"}, {"HOU", "TX"}, {"OAK", "CA"}, {"MSY", "LA"},
}

// epochDay is 2015-01-01 as days since the Unix epoch, the start of the
// generated window.
var epochDay = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400

// BuildFlightsDB generates the flights fact table plus carrier and airport
// dimension tables in the Extract schema.
//
// The fact table is sorted by (date, hour), carrying realistic skew: carrier
// and airport popularity follow a power-ish law, delays are mostly small
// with a heavy tail, ~1.5% of flights are cancelled (null delay).
func BuildFlightsDB(cfg FlightsConfig) (*storage.Database, error) {
	if cfg.Carriers <= 0 || cfg.Carriers > len(carrierNames) {
		cfg.Carriers = len(carrierNames)
	}
	if cfg.Airports <= 0 || cfg.Airports > len(airportCodes) {
		cfg.Airports = len(airportCodes)
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Rows

	dates := make([]storage.Value, n)
	hours := make([]storage.Value, n)
	origins := make([]storage.Value, n)
	dests := make([]storage.Value, n)
	markets := make([]storage.Value, n)
	carriers := make([]storage.Value, n)
	delays := make([]storage.Value, n)
	cancelled := make([]storage.Value, n)
	distances := make([]storage.Value, n)

	pickSkewed := func(max int) int {
		// Power-law-ish pick favoring low indices.
		f := rng.Float64()
		return int(f * f * float64(max))
	}

	for i := 0; i < n; i++ {
		day := int64(i * cfg.Days / n) // sorted by construction
		dates[i] = storage.Value{Type: storage.TDate, I: epochDay + day}
		hour := 5 + pickSkewed(18)
		hours[i] = storage.IntValue(int64(hour))
		o := pickSkewed(cfg.Airports)
		d := pickSkewed(cfg.Airports)
		if d == o {
			d = (d + 1) % cfg.Airports
		}
		origins[i] = storage.StrValue(airportCodes[o].code)
		dests[i] = storage.StrValue(airportCodes[d].code)
		markets[i] = storage.StrValue(airportCodes[o].code + "-" + airportCodes[d].code)
		c := pickSkewed(cfg.Carriers)
		carriers[i] = storage.StrValue(carrierNames[c].code)
		if rng.Float64() < 0.015 {
			cancelled[i] = storage.BoolValue(true)
			delays[i] = storage.NullValue(storage.TFloat)
		} else {
			cancelled[i] = storage.BoolValue(false)
			d := rng.NormFloat64()*12 + 4
			if rng.Float64() < 0.05 {
				d += rng.Float64() * 180 // heavy tail
			}
			delays[i] = storage.FloatValue(d)
		}
		distances[i] = storage.IntValue(int64(150 + rng.Intn(2800)))
	}

	db := storage.NewDatabase("flights")
	build := func(name string, t storage.Type, coll storage.Collation, vals []storage.Value) (*storage.Column, error) {
		return storage.BuildColumn(name, t, coll, vals, storage.BuildOptions{})
	}
	var cols []*storage.Column
	for _, spec := range []struct {
		name string
		t    storage.Type
		coll storage.Collation
		vals []storage.Value
	}{
		{"date", storage.TDate, storage.CollBinary, dates},
		{"hour", storage.TInt, storage.CollBinary, hours},
		{"origin", storage.TStr, storage.CollCI, origins},
		{"dest", storage.TStr, storage.CollCI, dests},
		{"market", storage.TStr, storage.CollCI, markets},
		{"carrier", storage.TStr, storage.CollCI, carriers},
		{"delay", storage.TFloat, storage.CollBinary, delays},
		{"cancelled", storage.TBool, storage.CollBinary, cancelled},
		{"distance", storage.TInt, storage.CollBinary, distances},
	} {
		col, err := build(spec.name, spec.t, spec.coll, spec.vals)
		if err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		cols = append(cols, col)
	}
	fact, err := storage.NewTable("Extract", "flights", cols)
	if err != nil {
		return nil, err
	}
	fact.SortKey = []string{"date", "hour"}
	if err := db.AddTable(fact); err != nil {
		return nil, err
	}

	// Carrier dimension: code -> airline name.
	var cCode, cName []storage.Value
	for i := 0; i < cfg.Carriers; i++ {
		cCode = append(cCode, storage.StrValue(carrierNames[i].code))
		cName = append(cName, storage.StrValue(carrierNames[i].name))
	}
	code, err := build("carrier", storage.TStr, storage.CollCI, cCode)
	if err != nil {
		return nil, err
	}
	cname, err := build("airline_name", storage.TStr, storage.CollBinary, cName)
	if err != nil {
		return nil, err
	}
	dim, err := storage.NewTable("Extract", "carriers", []*storage.Column{code, cname})
	if err != nil {
		return nil, err
	}
	dim.UniqueKeys = [][]string{{"carrier"}}
	if err := db.AddTable(dim); err != nil {
		return nil, err
	}

	// Airport dimension: code -> state.
	var aCode, aState []storage.Value
	for i := 0; i < cfg.Airports; i++ {
		aCode = append(aCode, storage.StrValue(airportCodes[i].code))
		aState = append(aState, storage.StrValue(airportCodes[i].state))
	}
	acol, err := build("airport", storage.TStr, storage.CollCI, aCode)
	if err != nil {
		return nil, err
	}
	scol, err := build("state", storage.TStr, storage.CollCI, aState)
	if err != nil {
		return nil, err
	}
	air, err := storage.NewTable("Extract", "airports", []*storage.Column{acol, scol})
	if err != nil {
		return nil, err
	}
	air.UniqueKeys = [][]string{{"airport"}}
	if err := db.AddTable(air); err != nil {
		return nil, err
	}
	return db, nil
}

// CarrierCodes returns the first n carrier codes the generator uses.
func CarrierCodes(n int) []string {
	if n <= 0 || n > len(carrierNames) {
		n = len(carrierNames)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = carrierNames[i].code
	}
	return out
}

// AirportCodesList returns the first n airport codes the generator uses.
func AirportCodesList(n int) []string {
	if n <= 0 || n > len(airportCodes) {
		n = len(airportCodes)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = airportCodes[i].code
	}
	return out
}
