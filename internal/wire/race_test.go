//go:build race

package wire

// The race runtime changes what allocates (it drops a quarter of sync.Pool
// puts, for one), so byte bounds measured in ordinary builds are not
// asserted in race builds.
func init() { raceBuild = true }
