package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder is a test that Check reports to: it runs cleanups when told and
// keeps what would have failed it.
type recorder struct {
	testing.TB
	cleanups []func()
	errors   []string
}

func (r *recorder) Cleanup(f func()) { r.cleanups = append(r.cleanups, f) }

func (r *recorder) Errorf(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

func (r *recorder) end() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func parked(started, stop chan struct{}) {
	close(started)
	<-stop
}

// TestCheck pins both outcomes: a goroutine still exiting when the test ends
// is waited for, and one that never exits fails the test with its stack.
func TestCheck(t *testing.T) {
	defer func(p time.Duration) { patience = p }(patience)
	patience = 200 * time.Millisecond

	r := &recorder{TB: t}
	Check(r)
	go time.Sleep(20 * time.Millisecond)
	r.end()
	if len(r.errors) != 0 {
		t.Errorf("a goroutine that exits within the patience was reported: %v", r.errors)
	}

	stop := make(chan struct{})
	defer close(stop)
	r = &recorder{TB: t}
	Check(r)
	started := make(chan struct{})
	go parked(started, stop)
	<-started
	r.end()
	if len(r.errors) != 1 || !strings.Contains(r.errors[0], "leakcheck.parked") {
		t.Errorf("a goroutine that never exits was reported as %v, want one error naming it", r.errors)
	}
}
