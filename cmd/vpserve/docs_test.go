package main

import (
	"flag"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"videoplat/internal/pipeline"
)

// These tests pin docs/OPERATIONS.md to the code it documents: the
// registered vpserve flag set, the server.Config it fills and the
// flow-verdict taxonomy (the route table
// and the /metrics catalog are pinned beside them, in internal/server).
// Adding a flag or verdict without documenting it — or documenting one that
// no longer exists — fails CI.

func operationsDoc(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading runbook: %v", err)
	}
	return string(doc)
}

func TestOperationsDocCoversFlags(t *testing.T) {
	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	registerFlags(fs)
	doc := operationsDoc(t)

	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f.Name) + "`").MatchString(doc) {
			t.Errorf("flag -%s is not documented in docs/OPERATIONS.md (add a `-%s` table row)", f.Name, f.Name)
		}
	})
	if len(registered) == 0 {
		t.Fatal("no flags registered")
	}

	// The reverse direction: every `-flag` the runbook mentions must still
	// exist, so renames and removals can't leave stale documentation.
	for _, m := range regexp.MustCompile("`-([a-z][a-z0-9-]*)`").FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/OPERATIONS.md documents `-%s`, which is not a registered vpserve flag", m[1])
		}
	}
}

// TestServerConfigFieldsHaveFlags keeps server.Config from growing a field
// that only ever takes its default: with every flag set to a non-zero value,
// each exported field of the config the daemon builds is non-zero, or is
// listed here as something main attaches rather than a setting.
func TestServerConfigFieldsHaveFlags(t *testing.T) {
	programmatic := map[string]string{
		"Sink":         "the -telemetry-persist file's JSONL sink, opened by buildStore",
		"Store":        "built by buildStore from the -telemetry-* flags",
		"Registry":     "opened by main from -registry-dir",
		"Drift":        "the monitor main builds beside the registry",
		"Retrainer":    "built by main under -auto-retrain",
		"Journal":      "the one journal main shares across subsystems",
		"ProviderHint": "a function; -no-provider-hint clears it",
		"BatchSize":    "no flag: named by bench/daemon.go",
	}

	fs := flag.NewFlagSet("vpserve", flag.ContinueOnError)
	o := registerFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		for _, v := range []string{"7", "7s", "true"} { // numbers and strings, durations, bools
			if f.Value.Set(v) == nil {
				return
			}
		}
		t.Fatalf("flag -%s accepts none of the sentinel values", f.Name)
	})
	cfg := reflect.ValueOf(o.serverConfig())
	for i := 0; i < cfg.NumField(); i++ {
		field := cfg.Type().Field(i)
		if !field.IsExported() {
			continue
		}
		_, listed := programmatic[field.Name]
		switch set := !cfg.Field(i).IsZero(); {
		case !set && !listed:
			t.Errorf("server.Config.%s is set by no vpserve flag: give it one, make it a constant, or list it as programmatic-only", field.Name)
		case set && listed:
			t.Errorf("server.Config.%s is listed as programmatic-only but serverConfig sets it from a flag", field.Name)
		}
		delete(programmatic, field.Name)
	}
	for name := range programmatic {
		t.Errorf("programmatic-only list names %s, which is not a server.Config field", name)
	}
}

func TestOperationsDocCoversVerdicts(t *testing.T) {
	doc := operationsDoc(t)
	start := strings.Index(doc, "## Flow verdicts")
	if start < 0 {
		t.Fatal("docs/OPERATIONS.md has no \"## Flow verdicts\" section")
	}
	section := doc[start:]
	if end := strings.Index(section[2:], "\n## "); end >= 0 {
		section = section[:end+2]
	}

	taxonomy := map[string]bool{}
	for _, name := range pipeline.VerdictNames() {
		taxonomy[name] = true
		if !regexp.MustCompile("(?m)^\\| `" + regexp.QuoteMeta(name) + "` \\|").MatchString(section) {
			t.Errorf("verdict %q is not documented in the Flow verdicts table (add a `%s` row)", name, name)
		}
	}

	// Reverse: every row in the table must name a live verdict, so renames
	// and removals can't leave stale documentation.
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9-]+)` \\|").FindAllStringSubmatch(section, -1) {
		if !taxonomy[m[1]] {
			t.Errorf("Flow verdicts table documents %q, which is not in pipeline.VerdictNames()", m[1])
		}
	}
}
