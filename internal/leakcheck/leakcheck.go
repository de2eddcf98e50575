// Package leakcheck asserts that no goroutine outlives the test that started
// it, from the runtime's own goroutine dump and nothing else.
package leakcheck

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// patience is how long Check waits for goroutines to finish exiting.
var patience = 5 * time.Second

// Check notes the goroutines running now and registers a cleanup that, once
// the test and every cleanup registered after this one have run, waits up to
// five seconds for each goroutine started since to exit, and otherwise fails
// the test listing their stacks. Call it first, so the cleanups that shut
// the test's subjects down run before it.
func Check(t testing.TB) {
	before := map[string]bool{}
	for _, g := range goroutines() {
		before[id(g)] = true
	}
	t.Cleanup(func() {
		var extra []string
		for deadline := time.Now().Add(patience); ; time.Sleep(10 * time.Millisecond) {
			extra = extra[:0]
			for _, g := range goroutines() {
				if !before[id(g)] {
					extra = append(extra, g)
				}
			}
			if len(extra) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(extra) > 0 {
			t.Errorf("%d goroutine(s) outlived the test:\n\n%s", len(extra), strings.Join(extra, "\n\n"))
		}
	})
}

// goroutines returns the stack of every goroutine, one string each.
func goroutines() []string {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// id is the goroutine number from a stack's header, "goroutine 42 [...]:".
// The runtime never reuses one.
func id(stack string) string {
	if f := strings.Fields(stack); len(f) > 1 {
		return f[1]
	}
	return stack
}
