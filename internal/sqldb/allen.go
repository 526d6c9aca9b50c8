package sqldb

import (
	"fmt"
	"strings"

	"ritree/internal/interval"
)

// The §4.5 fine-grained interval operators on the SQL surface: one
// operator per Allen relation,
//
//	ALLEN_DURING(lowerCol, upperCol, :qlo, :qhi)
//
// matching every row whose stored interval i satisfies "i during
// [qlo, qhi]". All thirteen are planned through the shared
// generating-region strategy (interval.GeneratingRegion): the driving
// access method runs an ordinary INTERSECTS scan over the region derived
// from the relation, and the executor applies the exact relation as a
// residual filter over the stored bounds. Any indextype that serves
// INTERSECTS therefore serves every Allen operator with no per-method
// code — ritree, hint, hint_sharded, and whatever an embedder registers.

// allenPrefix starts every Allen operator name.
const allenPrefix = "allen_"

// opIntersects is the INTERSECTS operator every interval indextype
// serves; the generating-region plan rewrites ALLEN_* scans onto it.
const opIntersects = "intersects"

// allenOps maps the SQL operator names to relations. The names use
// underscores where the relation's conventional name uses hyphens
// (ALLEN_FINISHED_BY for "finished-by").
var allenOps = func() map[string]interval.Relation {
	m := make(map[string]interval.Relation, interval.NumRelations)
	for r := interval.Relation(0); int(r) < interval.NumRelations; r++ {
		name := allenPrefix + strings.ReplaceAll(r.String(), "-", "_")
		m[name] = r
	}
	return m
}()

// AllenOperatorNames lists the thirteen ALLEN_* SQL operator names in
// relation order (for docs and the risql \help output).
func AllenOperatorNames() []string {
	names := make([]string, 0, interval.NumRelations)
	for r := interval.Relation(0); int(r) < interval.NumRelations; r++ {
		names = append(names, allenPrefix+strings.ReplaceAll(r.String(), "-", "_"))
	}
	return names
}

// allenRelation resolves an operator name (case-insensitively) to its
// relation.
func allenRelation(name string) (interval.Relation, bool) {
	r, ok := allenOps[strings.ToLower(name)]
	return r, ok
}

// allenQuery validates the operator's query bounds. An inverted query
// interval is an error (matching ritree.Collection.Query), surfaced as a
// runtime fault because the bounds may come from join columns evaluated
// per row.
// The message carries no "sql: " prefix — sqlRuntimeError adds it.
func allenQuery(r interval.Relation, qlo, qhi int64) (interval.Interval, error) {
	if qlo > qhi {
		return interval.Interval{}, fmt.Errorf("%s got the inverted query interval [%d, %d]",
			strings.ToUpper(allenPrefix+strings.ReplaceAll(r.String(), "-", "_")), qlo, qhi)
	}
	return interval.New(qlo, qhi), nil
}
