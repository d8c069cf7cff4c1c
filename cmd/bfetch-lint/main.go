// Command bfetch-lint runs the repository's custom static-analysis suite
// (internal/lint) over the module: the compiler-witnessed hot-path
// allocation gate (escape), the send-under-lock check (syncorder),
// determinism rules, the stats-reset audit and the rule that no package
// under internal/ depends on net (nonet). It starts one go command,
// `go list -e -export -deps -json -gcflags='-m=2 -d=ssa/check_bce/debug=1'
// ./...`, whose output names the files each package compiles, the gc export
// data its standard-library imports are read from and the compiler's
// diagnostics the allocation gate checks. It type-checks every package with
// go/types and fails on any build or type error. Go's build cache replays
// the diagnostics of up-to-date packages, so a cold run costs one build and
// a warm run under a second. A toolchain whose diagnostic format the parser
// does not recognize fails the run. It prints findings compiler-style and
// exits non-zero when any survive, so `make lint` and CI can gate on it.
//
// Usage:
//
//	bfetch-lint [-C dir]
//
// With no -C it lints the module containing the working directory. The
// output matches the GitHub problem matcher shipped in
// .github/bfetch-lint-matcher.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "directory inside the module to lint")
	flag.Parse()

	root, err := lint.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := lint.RunAll(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range res.Diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "bfetch-lint: %d package(s), %d analyzer(s) [%s], %d finding(s)\n",
		res.Packages, len(lint.Analyzers), strings.Join(lint.Analyzers, " "), len(res.Diags))
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}
