// Command vpvet is the repo's contract linter: a go vet -vettool
// multichecker bundling the two analyzers that enforce the serving spine's
// hot-path contracts statically (see docs/ANALYZERS.md):
//
//   - borrowck: //vp:borrowed parameters must not escape the call
//   - hotpath:  //vp:hotpath functions (and their module callees)
//     must not allocate
//
// Build and run it through the vet driver so packages are analyzed in
// dependency order with facts flowing between them:
//
//	go build -o vpvet ./cmd/vpvet
//	go vet -vettool=./vpvet ./...
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"videoplat/internal/analysis/borrowck"
	"videoplat/internal/analysis/hotpath"
)

func main() {
	unitchecker.Main(
		borrowck.Analyzer,
		hotpath.Analyzer,
	)
}
