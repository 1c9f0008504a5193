package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/httpapi"
	"repro/internal/pgrdf"
	"repro/internal/rdf"
	"repro/internal/sparql"
)

// figureOf maps an EQ to the paper figure that times it.
func figureOf(eq string) string {
	switch {
	case eq == "EQ1" || eq == "EQ2" || eq == "EQ3" || eq == "EQ4":
		return "node"
	case strings.HasPrefix(eq, "EQ5"), strings.HasPrefix(eq, "EQ6"),
		strings.HasPrefix(eq, "EQ7"), strings.HasPrefix(eq, "EQ8"):
		return "edge"
	case eq == "EQ9" || eq == "EQ10":
		return "agg"
	case strings.HasPrefix(eq, "EQ11"):
		return "path"
	default:
		return "triangle"
	}
}

var figures = []string{"node", "edge", "agg", "path", "triangle"}

// eqCase is one of the 32 EQ × scheme texts of an analytic pass.
type eqCase struct {
	eq     string // EQ name, e.g. "EQ7b"
	key    string // comparison key shared by the NG and SP forms, e.g. "EQ7"
	scheme pgrdf.Scheme
	fig    string
	model  string
	text   string
}

func (c eqCase) label() string { return c.eq + "." + c.scheme.String() }

// modelFor is the dataset §4.4 poses an EQ against under scheme s
// (Table 4).
func modelFor(s pgrdf.Scheme, eq string) string {
	return bench.TargetModelFor(&bench.SchemeEnv{Names: pgrdf.PartitionNames(prefixOf(s))}, eq)
}

var eqOrder = []string{"EQ1", "EQ2", "EQ3", "EQ4", "EQ5", "EQ6", "EQ7", "EQ8",
	"EQ9", "EQ10", "EQ11a", "EQ11b", "EQ11c", "EQ11d", "EQ11e", "EQ12"}

// analyticCases poses every EQ the way §4.4 does: EQ1–4 and EQ9–12 on
// both NG and SP, EQ5–8 as the "a" form on NG and the "b" form on SP.
func analyticCases(tag, start string) []eqCase {
	qs := (&bench.Env{Tag: tag, StartNode: start}).Queries()
	var out []eqCase
	for _, key := range eqOrder {
		for _, s := range []pgrdf.Scheme{pgrdf.NG, pgrdf.SP} {
			eq := key
			if figureOf(key) == "edge" {
				if s == pgrdf.NG {
					eq += "a"
				} else {
					eq += "b"
				}
			}
			out = append(out, eqCase{eq: eq, key: key, scheme: s, fig: figureOf(key),
				model: modelFor(s, key), text: qs[eq]})
		}
	}
	return out
}

// resultCount follows Table 10's "Number of Results": the counted value
// of a single-cell integer result (EQ11/EQ12 count paths and
// triangles), otherwise the number of rows.
func resultCount(res *sparql.Results) int {
	if len(res.Rows) == 1 && len(res.Rows[0]) == 1 {
		if v, ok := rdf.LiteralValue(res.Rows[0][0]); ok && v.Kind == rdf.ValueInteger {
			return int(v.Int)
		}
	}
	return res.Len()
}

// countJSON parses a SPARQL JSON results body and returns its count.
func countJSON(body []byte) (int, error) {
	res, _, err := httpapi.ParseResultsJSON(strings.NewReader(string(body)))
	if err != nil {
		return 0, fmt.Errorf("unparseable results: %w", err)
	}
	return resultCount(res), nil
}

// askJSON parses a SPARQL JSON boolean body.
func askJSON(body []byte) (bool, error) {
	var v struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Boolean == nil {
		return false, fmt.Errorf("unparseable ASK result: %q", truncate(body, 120))
	}
	return *v.Boolean, nil
}

// algoReply is the part of a POST /algo reply the checks compare.
type algoReply struct {
	Vertices   int             `json:"vertices"`
	Edges      int             `json:"edges"`
	CSRCached  bool            `json:"csrCached"`
	CSRBuildMS float64         `json:"csrBuildMS"`
	RunMS      float64         `json:"runMS"`
	Iterations int             `json:"iterations"`
	Top        json.RawMessage `json:"top"`
	Components int             `json:"components"`
	TopComps   json.RawMessage `json:"topComponents"`
	Triangles  *int64          `json:"triangles"`
}

// fingerprint is the scheme-independent content of a reply: RF, NG and
// SP projections of one graph must agree on all of it.
func (a algoReply) fingerprint() string {
	tri := int64(-1)
	if a.Triangles != nil {
		tri = *a.Triangles
	}
	return fmt.Sprintf("v=%d e=%d it=%d top=%s comps=%d topc=%s tri=%d",
		a.Vertices, a.Edges, a.Iterations, a.Top, a.Components, a.TopComps, tri)
}
