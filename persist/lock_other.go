//go:build !unix

package persist

// Platforms without flock get no single-writer guard; the snapshot and
// segment framing still detect (rather than silently absorb) most
// interleaved-writer damage.

func lockDir(string) (func(), error) {
	return func() {}, nil
}
