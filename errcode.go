package mpf

import "errors"

// errorCodes maps every exported sentinel to its stable wire code, in
// match order. Order matters where sentinels can co-occur on one error
// chain: corruption is detected inside the IO path, so ErrCorrupt must
// be probed before ErrIO to keep the more specific code.
var errorCodes = []struct {
	err  error
	code string
}{
	{ErrUnknownTable, "unknown_table"},
	{ErrUnknownView, "unknown_view"},
	{ErrDuplicateTable, "duplicate_table"},
	{ErrNotFunctional, "not_functional"},
	{ErrSchemaMismatch, "schema_mismatch"},
	{ErrUnknownExecMode, "unknown_exec_mode"},
	{ErrBudget, "budget_exceeded"},
	{ErrCanceled, "canceled"},
	{ErrCorrupt, "corrupt"},
	{ErrIO, "io"},
	{ErrPoolExhausted, "pool_exhausted"},
}

// ErrorCode classifies an error from the Database API as a stable,
// machine-readable code: one code per exported sentinel (matched with
// errors.Is, so wrapped errors classify correctly), "" for nil, and
// "internal" for anything unrecognized. The serving layer's error
// envelopes and mpfcli's error output both speak these codes; the
// mapping is total over the package's sentinels by construction
// (asserted by TestErrorCodeTotal against the declarations in mpf.go).
func ErrorCode(err error) string {
	if err == nil {
		return ""
	}
	for _, ec := range errorCodes {
		if errors.Is(err, ec.err) {
			return ec.code
		}
	}
	return "internal"
}
