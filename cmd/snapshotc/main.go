// Command snapshotc compiles an app IR into a serving-ready .snap snapshot:
// the §3.3 static extraction of every release, the framework-catalog phrase
// embeddings, and the flattened scan matrices, serialized into the snapfile
// container that core.LoadSnapshot reconstructs in well under a millisecond.
//
// The output is byte-deterministic: compiling the same IR twice produces
// identical files (CI compiles the seed app twice and compares with cmp).
//
// Usage:
//
//	snapshotc -app com.fsck.k9 -o k9.snap
//	snapshotc -appfile app.json -o app.snap
//
// An app whose releases are out of time order is refused here, not at
// load time: a loader rejects such an image, so it could never serve.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/core"
	"reviewsolver/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "snapshotc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		appPkg  = flag.String("app", "", "package id of a built-in generated app")
		appFile = flag.String("appfile", "", "path to an app IR JSON file")
		seed    = flag.Int64("seed", 1, "generator seed for built-in apps")
		out     = flag.String("o", "", "output .snap path (required)")
		list    = flag.Bool("list", false, "list the built-in generated apps")
		quiet   = flag.Bool("q", false, "suppress the summary line")
	)
	flag.Parse()

	if *list {
		for _, info := range synth.Table6Specs() {
			fmt.Printf("%-40s %s\n", info.Package, info.Name)
		}
		return nil
	}
	if *out == "" {
		return errors.New("missing -o output path")
	}

	app, err := loadApp(*appPkg, *appFile, *seed)
	if err != nil {
		return err
	}

	started := time.Now()
	img, err := core.EncodeSnapshot(core.NewSnapshot(), app)
	if err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	if err := os.WriteFile(*out, img, 0o644); err != nil {
		return err
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "snapshotc: %s → %s (%d bytes, %d releases) in %s\n",
			app.Package, *out, len(img), len(app.Releases), time.Since(started).Round(time.Millisecond))
	}
	return nil
}

// loadApp resolves the app IR from a JSON file or a built-in generator.
func loadApp(pkg, file string, seed int64) (*apk.App, error) {
	switch {
	case file != "":
		return apk.LoadJSON(file)
	case pkg != "":
		for i, info := range synth.Table6Specs() {
			if info.Package == pkg {
				return synth.GenerateTable6(seed)[i].App, nil
			}
		}
		return nil, fmt.Errorf("unknown built-in app %q (use -list)", pkg)
	default:
		return nil, errors.New("one of -app or -appfile is required")
	}
}
