package emd

import "ferret/internal/object"

// OracleObjectDistance exposes the old solver to the external test package,
// which plugs it into an engine as Config.ObjectDistance.
func OracleObjectDistance(opt Options) func(a, b object.Object) float64 {
	return func(a, b object.Object) float64 { return oracleDistance(a, b, opt) }
}
