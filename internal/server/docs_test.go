package server

import (
	"os"
	"regexp"
	"testing"
)

// These tests pin docs/OPERATIONS.md to the two tables the operations API is
// built from — routes and metricsCatalog — in both directions: adding an
// endpoint or a series without documenting it, documenting one that no
// longer exists, or documenting a series under the wrong type fails CI.

func operationsDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading runbook: %v", err)
	}
	return string(doc)
}

func TestOperationsDocCoversEndpoints(t *testing.T) {
	doc := operationsDoc(t)
	registered := map[string]bool{}
	for _, rt := range routes {
		registered[rt.pattern] = true
		if !regexp.MustCompile("`" + regexp.QuoteMeta(rt.pattern) + "`").MatchString(doc) {
			t.Errorf("endpoint %q is not documented in docs/OPERATIONS.md (add a `%s` section)", rt.pattern, rt.pattern)
		}
	}
	// Reverse: every endpoint section the runbook heads must still be routed.
	for _, m := range regexp.MustCompile("(?m)^#+ `((?:GET|POST) /[^`]*)`").FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/OPERATIONS.md documents `%s`, which is not a registered route", m[1])
		}
	}
}

func TestOperationsDocCoversMetrics(t *testing.T) {
	doc := operationsDoc(t)
	// The metrics table: | `name` | type | description |
	documented := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(videoplat_[a-z_]+)` \\| ([a-z]+) \\|").FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = m[2]
	}
	catalog := map[string]bool{}
	for _, m := range metricsCatalog {
		catalog[m.name] = true
		switch typ, ok := documented[m.name]; {
		case !ok:
			t.Errorf("metric %s is not documented in docs/OPERATIONS.md (add a `%s` table row)", m.name, m.name)
		case typ != m.typ:
			t.Errorf("docs/OPERATIONS.md lists %s as %s; /metrics emits it as %s", m.name, typ, m.typ)
		}
	}
	// Reverse: every series the runbook names, in the table or in prose,
	// must still be emitted.
	for _, name := range regexp.MustCompile(`videoplat_[a-z_]+`).FindAllString(doc, -1) {
		if !catalog[name] {
			t.Errorf("docs/OPERATIONS.md documents %s, which is not in the /metrics catalog", name)
		}
	}
}
