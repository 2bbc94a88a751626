package core

import "strconv"

// This file implements engine.KeyAppender for the core types that flow
// into cache keys (the experiment config fingerprint and the /sweep plan
// fingerprint), replacing fmt %#v reflection. Each AppendKey MUST produce
// bytes identical to fmt.Sprintf("%#v", v) — the differential tests in
// keyappend_test.go lock the equivalence — because the experiment keys
// are persistent disk-cache keys.

// AppendKey appends the Go-syntax rendering of the parameters.
func (a AppParams) AppendKey(b []byte) []byte {
	b = append(b, "core.AppParams{Name:"...)
	b = strconv.AppendQuote(b, a.Name)
	b = append(b, ", F:"...)
	b = strconv.AppendFloat(b, a.F, 'g', -1, 64)
	b = append(b, ", FCon:"...)
	b = strconv.AppendFloat(b, a.FCon, 'g', -1, 64)
	b = append(b, ", FOred:"...)
	b = strconv.AppendFloat(b, a.FOred, 'g', -1, 64)
	b = append(b, ", Growth:"...)
	b = strconv.AppendInt(b, int64(a.Growth), 10)
	return append(b, '}')
}

// AppendKey appends the Go-syntax rendering of the budget.
func (bgt Budget) AppendKey(b []byte) []byte {
	b = append(b, "core.Budget{N:"...)
	b = strconv.AppendInt(b, int64(bgt.N), 10)
	return append(b, '}')
}
