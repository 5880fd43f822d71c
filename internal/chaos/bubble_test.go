//go:build goexperiment.synctest

package chaos

import "testing/synctest"

// With GOEXPERIMENT=synctest, every schedule over the in-memory transport
// runs inside a synctest bubble: each timeout, backoff and lease clock of
// the run is the bubble's, which advances the moment every goroutine of the
// run is blocked, so a nemesis timeout costs no wall-clock time. Runs over
// the mux transport stay on the wall clock: a goroutine waiting on a socket
// is never durably blocked, so their bubble would never advance.
//
//	GOEXPERIMENT=synctest go test ./internal/chaos
func init() {
	runSchedule = func(cfg Config) (rep *Report, err error) {
		if cfg.Transport != "" && cfg.Transport != "mem" {
			return Run(cfg)
		}
		synctest.Run(func() { rep, err = Run(cfg) })
		return rep, err
	}
}
