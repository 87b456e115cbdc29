// Command perple is the PerpLE tool family behind one front end. Each
// paper workflow is a subcommand with its own flags:
//
//	perple run          execute one litmus test under PerpLE or litmus7
//	perple suite        sweep a corpus through the campaign engine (§VII-G)
//	perple experiments  regenerate the Section VII tables and figures
//	perple convert      the Section V-A Converter: perpetual artifacts
//	perple diy          generate a test from a relaxation cycle
//	perple lint         vet litmus tests statically before running them
//	perple trace        verify witness traces against a memory model
//	perple serve        run the campaign engine as an HTTP service
//	perple worker       execute dispatch-campaign shards for a server
//
// `perple <command> -h` lists a command's flags. `perple` with no
// command, `perple help`, or an unknown command prints the list above
// and exits 2, as does any flag error.
//
// Every subcommand loads litmus tests through internal/litmus (the
// built-in suite, ParseFile and Files), and run, suite and trace share
// one set of machine flags: -n, -seed and -preset.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"perple/internal/litmus"
	"perple/internal/sim"
)

// command is one subcommand: it parses its own arguments and returns the
// process exit status.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"run", "execute one litmus test under PerpLE or litmus7", runCmd},
	{"suite", "sweep a corpus through the campaign engine (§VII-G)", suiteCmd},
	{"experiments", "regenerate the Section VII tables and figures", experimentsCmd},
	{"convert", "the Section V-A Converter: perpetual artifacts", convertCmd},
	{"diy", "generate a test from a relaxation cycle", diyCmd},
	{"lint", "vet litmus tests statically before running them", lintCmd},
	{"trace", "verify witness traces against a memory model", traceCmd},
	{"serve", "run the campaign engine as an HTTP service", serveCmd},
	{"worker", "execute dispatch-campaign shards for a server", workerCmd},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args name, or prints the command list and
// returns 2.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		if args[0] != "help" {
			fmt.Fprintf(stderr, "perple: unknown command %q\n", args[0])
		}
	}
	fmt.Fprintln(stderr, "usage: perple <command> [flags] [args]\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(stderr, "\nrun 'perple <command> -h' for a command's flags")
	return 2
}

// newFlags returns a subcommand's flag set; its name prefixes the
// command's diagnostics.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fl := flag.NewFlagSet("perple "+name, flag.ContinueOnError)
	fl.SetOutput(stderr)
	return fl
}

// usageErr reports a command-line error and returns exit status 2.
func usageErr(fl *flag.FlagSet, format string, args ...any) int {
	fmt.Fprintf(fl.Output(), "%s: %s\n", fl.Name(), fmt.Sprintf(format, args...))
	return 2
}

// report runs a command body whose failures are errors: an error is
// printed under the command's name and yields exit status 1.
func report(fl *flag.FlagSet, body func() error) int {
	if err := body(); err != nil {
		fmt.Fprintf(fl.Output(), "%s: %v\n", fl.Name(), err)
		return 1
	}
	return 0
}

// simFlags are the machine flags of the subcommands that run the
// simulator.
type simFlags struct {
	n      *int
	seed   *int64
	preset *string
}

// addSimFlags registers -n (with the command's default), -seed and
// -preset.
func addSimFlags(fl *flag.FlagSet, n int) simFlags {
	return simFlags{
		n:      fl.Int("n", n, "iterations per test"),
		seed:   fl.Int64("seed", 1, "simulator seed"),
		preset: fl.String("preset", "default", "machine preset (default, pso, slow-drain, fast-drain, no-preempt, heavy-preempt)"),
	}
}

// config builds the seeded machine configuration the flags name.
func (f simFlags) config() (sim.Config, error) {
	cfg, err := sim.Preset(*f.preset)
	if err != nil {
		return sim.Config{}, err
	}
	return cfg.WithSeed(*f.seed), nil
}

// loadTest resolves the -test/-file pair of run and convert.
func loadTest(name, file string) (*litmus.Test, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("use either -test or -file, not both")
	case name != "":
		return litmus.SuiteTest(name)
	case file != "":
		return litmus.ParseFile(file)
	default:
		return nil, fmt.Errorf("no input: pass -test <name> or -file <path>")
	}
}

// indent prefixes every line of a multi-line report with four spaces.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
