package codec

// AlignCheck returns a check of align against the reference chunk
// aligner kept in align_ref_test.go, under the name table and its twin
// table: the check aligns a against its twin rendering b both ways,
// describes how the two differ ("" when they return the same segments
// and ok), and returns the reference's ok.
func AlignCheck(names, twin []string) func(a, b string) (string, bool) {
	al := newAligner(names, twin)
	return func(a, b string) (string, bool) { return alignMismatch(al, a, b) }
}
