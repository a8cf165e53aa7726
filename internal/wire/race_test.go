//go:build race

package wire

// The race runtime drops a quarter of sync.Pool puts, so allocation bounds
// that rely on pooled deflaters do not hold in race builds.
func init() { raceBuild = true }
