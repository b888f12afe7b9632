package lintkit

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"runtime"
	"strings"
)

// The `go vet -vettool=` protocol, reimplemented from the contract x/tools'
// unitchecker documents (and the go command relies on):
//
//	hydralint -V=full        print an executable fingerprint (build cache key)
//	hydralint -flags         print supported flags as JSON
//	hydralint [flags] x.cfg  analyze one compilation unit described by a
//	                         JSON config file written by the go command
//
// Each .cfg names the unit's Go files and maps every dependency's package
// path to its compiler export data, so the unit is re-type-checked exactly
// as the compiler saw it — test variants included. hydralint carries no
// cross-package facts, so
// VetxOnly dependency visits write an empty facts file and exit; the
// analyzers are designed around per-package invariants (markers propagate
// through a package's call graph, conventions bind package-local types)
// precisely so that modular analysis needs no fact flow.

// unitConfig mirrors the fields of the go command's vet .cfg files that
// hydralint consumes.
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is cmd/hydralint's entry point: the unitchecker protocol, as invoked
// by go vet (a single *.cfg argument). It does not return.
func Main(progname string, analyzers []*Analyzer) {
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Var(versionFlag{}, "V", "print version fingerprint and exit (go vet protocol)")
	_ = flag.Int("c", -1, "display offending line with this many lines of context (accepted for vet compatibility)")
	enabled := make(map[string]*string, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = flag.String(a.Name, "", "enable "+a.Name+" analysis (true/false; default: all enabled)")
	}
	flag.Parse()

	if *printFlags {
		printFlagsJSON()
		os.Exit(0)
	}

	analyzers = selectAnalyzers(analyzers, enabled)
	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf("run under the go command: go vet -vettool=$(command -v %s) ./...", progname)
	}
	runUnit(args[0], analyzers, *jsonOut)
	panic("unreachable")
}

// selectAnalyzers applies go vet's enable-flag convention: if any -NAME
// flag is true, run only those; else if any is false, run all but those.
func selectAnalyzers(analyzers []*Analyzer, enabled map[string]*string) []*Analyzer {
	hasTrue := false
	hasFalse := false
	for _, v := range enabled {
		switch *v {
		case "true", "1":
			hasTrue = true
		case "false", "0":
			hasFalse = true
		}
	}
	if !hasTrue && !hasFalse {
		return analyzers
	}
	var keep []*Analyzer
	for _, a := range analyzers {
		v := *enabled[a.Name]
		on := v == "true" || v == "1"
		off := v == "false" || v == "0"
		if (hasTrue && on) || (!hasTrue && !off) {
			keep = append(keep, a)
		}
	}
	return keep
}

// runUnit analyzes the single compilation unit described by cfgFile, per
// the go vet protocol: diagnostics to stderr (or a JSON tree to stdout
// under -json), an (empty) facts file to cfg.VetxOutput, exit 1 when
// diagnostics were found so the go command reports them.
func runUnit(cfgFile string, analyzers []*Analyzer, jsonOut bool) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}
	if cfg.VetxOnly {
		// A dependency visited only for facts: hydralint has none to export.
		writeVetx(cfg)
		os.Exit(0)
	}
	if len(cfg.GoFiles) == 0 {
		log.Fatalf("package has no files: %s", cfg.ImportPath)
	}

	fset, gc := unitImporter(cfg)
	pkg, err := checkPackage(fset, cfg.ImportPath, cfg.GoFiles, mapImports(gc, cfg.ImportMap), cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// The compiler will report the same failure with a better message.
			os.Exit(0)
		}
		log.Fatal(err)
	}
	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		log.Fatal(err)
	}
	writeVetx(cfg)
	if jsonOut {
		tree := make(map[string]map[string][]jsonDiagnostic)
		addJSONDiags(tree, cfg.ID, pkg, diags)
		printJSONTree(tree)
		os.Exit(0)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// unitImporter builds the export-data importer for one vet compilation
// unit: package paths resolve through cfg.PackageFile, exactly as the
// compiler resolved them.
func unitImporter(cfg *unitConfig) (*token.FileSet, types.Importer) {
	fset := token.NewFileSet()
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	return fset, imp
}

// importerFunc adapts a function to types.Importer (mirroring the adapter
// x/tools' unitchecker uses).
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// mapImports applies a unit's ImportMap (vendoring, test-variant rewrites)
// before delegating to its export-data importer.
func mapImports(imp types.Importer, importMap map[string]string) types.Importer {
	if len(importMap) == 0 {
		return imp
	}
	return importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		return imp.Import(path)
	})
}

// checkPackage parses files and type-checks them as one package, recording
// the full types.Info the analyzers need. goVersion, when non-empty, pins
// the language version (the go command supplies it per unit).
func checkPackage(fset *token.FileSet, pkgPath string, files []string, imp types.Importer, goVersion string) (*Package, error) {
	var astFiles []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: goVersion,
	}
	tpkg, err := conf.Check(pkgPath, fset, astFiles, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Files: astFiles, Types: tpkg, Info: info}, nil
}

// writeVetx satisfies the protocol's facts contract: the go command expects
// the output file to exist even when the tool exports no facts.
func writeVetx(cfg *unitConfig) {
	if cfg.VetxOutput == "" {
		return
	}
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		log.Fatalf("failed to write facts file: %v", err)
	}
}

// jsonDiagnostic matches the x/tools JSON tree leaf shape so downstream
// tooling that parses `go vet -json` output keeps working.
type jsonDiagnostic struct {
	Posn    string `json:"posn"`
	Message string `json:"message"`
}

func addJSONDiags(tree map[string]map[string][]jsonDiagnostic, id string, pkg *Package, diags []Diagnostic) {
	for _, d := range diags {
		byAnalyzer := tree[id]
		if byAnalyzer == nil {
			byAnalyzer = make(map[string][]jsonDiagnostic)
			tree[id] = byAnalyzer
		}
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiagnostic{
			Posn:    pkg.Fset.Position(d.Pos).String(),
			Message: d.Message,
		})
	}
}

func printJSONTree(tree map[string]map[string][]jsonDiagnostic) {
	data, err := json.MarshalIndent(tree, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// printFlagsJSON describes the registered flags in the JSON shape the go
// command reads to learn which vet flags the tool supports.
func printFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full protocol: print a line that changes
// whenever the executable changes, so the go command can cache vet results
// keyed on the tool build. The format mirrors the one the go toolchain's
// own vet emits.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
