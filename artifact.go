package beyondiv

// The persistence bridge between the facade and the engine's disk tier:
// buildArtifact is the engine's Config.BuildArtifact hook. It renders
// every cacheable view of a freshly analyzed state into a
// codec.Artifact, then runs the differential rename check — re-analyze
// an α-renamed twin of the same program on a bare engine and let
// codec.Encode align the two renderings — so the stored entry can serve
// α-renamed duplicates byte-identically when, and only when, alignment
// proves that safe.

import (
	"encoding/json"
	"errors"
	"slices"

	"beyondiv/internal/codec"
	"beyondiv/internal/engine"
)

// artifactOf renders the cacheable subset of a live analyzed state: the
// classification and dependence reports, the dependence provenance, the
// structured report JSON, and one provenance chain per explainable name
// (iv.ExplainKeys order — structural, so a twin's entries align
// position by position).
func artifactOf(st *engine.State) (*codec.Artifact, error) {
	p := programOf(st)
	if p.IV == nil || st.File == nil {
		return nil, errors.New("beyondiv: state has no live analysis to serialize")
	}
	js, err := json.Marshal(p.IV.ReportData())
	if err != nil {
		return nil, err
	}
	a := &codec.Artifact{
		Classification: p.ClassificationReport(),
		HasDeps:        p.Deps != nil,
		Dependences:    p.DependenceReport(),
		ExplainDeps:    p.ExplainAllDeps(),
		ReportJSON:     string(js),
	}
	keys, texts := p.IV.ExplainAll()
	for i, key := range keys {
		a.Explains = append(a.Explains, codec.ExplainEntry{Name: key, Text: texts[i]})
	}
	return a, nil
}

// buildArtifact serializes st — whose structural hash and name table
// the engine computed after parse — for the disk store. The twin
// analysis is best-effort: any failure — a table too large to code, a
// twin that does not analyze, a rendering that will not align — just
// downgrades the entry to literal-only storage (exact for identical
// name tables) rather than failing the write.
func buildArtifact(st *engine.State, sum [32]byte, names []string, bare *engine.Engine) ([]byte, error) {
	a, err := artifactOf(st)
	if err != nil {
		return nil, err
	}
	var twin *codec.Artifact
	twinNames := codec.RenameTable(names)
	if twinNames != nil {
		src := codec.RewriteSource(st.File.String(), names, twinNames)
		if tst, terr := bare.Analyze(src); terr == nil && tst.File != nil {
			// The twin must be a true α-rename: same structural hash
			// (labels are hashed literally, so a variable that shares a
			// loop label's name — whose rewrite would corrupt the label
			// text in every report — fails here), renamed table as built.
			if tsum, tnames := codec.StructuralHash(tst.File); tsum == sum && slices.Equal(tnames, twinNames) {
				if ta, aerr := artifactOf(tst); aerr == nil {
					twin = ta
				}
			}
		}
	}
	if twin == nil {
		twinNames = nil
	}
	return codec.Encode(a, names, twin, twinNames), nil
}
