// Command sweepctl is the sweepd client: request cells, replay batches,
// run the load-generator scenario, and inspect server stats from the
// command line.
//
// Usage:
//
//	sweepctl -server localhost:8077 cell -workload sha -scheme Sweep-EmptyBit -profile RFHome
//	sweepctl batch -file cells.json           # JSON array of cell requests
//	sweepctl load -file cells.json -clients 8 -repeat 4
//	sweepctl stats
//	sweepctl -timeout 10s wait                # block until /healthz answers
//
// -server and -timeout are global: they go before the command. stats
// and wait take no arguments and refuse any with exit status 2, so a
// misplaced flag cannot be silently dropped.
//
// Single-cell responses print as JSON on stdout (add -full for the whole
// record, not just key/tier/digest). Exit status is non-zero on any
// request failure, so scripts can gate on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	server := flag.String("server", "localhost:8077", "sweepd address")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall deadline for the command")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if (cmd == "stats" || cmd == "wait") && len(args) > 0 {
		fmt.Fprintf(os.Stderr, "sweepctl: %s takes no arguments, got %q (global flags go before the command)\n", cmd, args)
		usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	cl := service.NewClient(*server)
	var err error
	switch cmd {
	case "cell":
		err = runCell(ctx, cl, args)
	case "batch":
		err = runBatch(ctx, cl, args)
	case "load":
		err = runLoad(ctx, cl, args)
	case "stats":
		var st *service.Stats
		if st, err = cl.Stats(ctx); err == nil {
			err = emit(st)
		}
	case "wait":
		err = cl.WaitHealthy(ctx, *timeout)
	default:
		fmt.Fprintf(os.Stderr, "sweepctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sweepctl [-server addr] [-timeout d] <command> [flags]

commands:
  cell    request one cell: -workload -scheme [-profile] [-scale] [-seed] [-params file] [-full]
  batch   replay a JSON array of cell requests: -file path ('-' = stdin) [-full]
  load    load-generator scenario: -file path -clients n -repeat n
  stats   print the server's store/tier statistics (no arguments)
  wait    block until the server answers /healthz, up to -timeout (no arguments)
`)
}

// emit prints v as indented JSON on stdout.
func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// trim drops the full record from a response unless -full asked for it;
// the key/tier/digest triple is what interactive use wants.
func trim(resp *service.CellResponse, full bool) *service.CellResponse {
	if !full {
		c := *resp
		c.Record = nil
		return &c
	}
	return resp
}

func runCell(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("cell", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name")
	scheme := fs.String("scheme", "", "scheme name (e.g. Sweep-EmptyBit, NVP)")
	profile := fs.String("profile", "", "supply profile (RFHome, RFOffice, solar, thermal) or outage-free")
	scale := fs.Int("scale", 0, "workload scale (0 = default)")
	seed := fs.Int64("seed", 0, "trace seed (0 = default)")
	paramsFile := fs.String("params", "", "JSON file of config.Params overrides")
	full := fs.Bool("full", false, "print the whole record, not just key/tier/digest")
	fs.Parse(args)

	req := service.CellRequest{
		Workload: *workload, Scheme: *scheme, Profile: *profile,
		Scale: *scale, Seed: *seed,
	}
	if *paramsFile != "" {
		raw, err := os.ReadFile(*paramsFile)
		if err != nil {
			return err
		}
		req.Params = raw
	}
	resp, err := cl.Cell(ctx, req)
	if err != nil {
		return err
	}
	return emit(trim(resp, *full))
}

func readRequests(path string) ([]service.CellRequest, error) {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = os.ReadFile("/dev/stdin")
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var reqs []service.CellRequest
	if err := json.Unmarshal(raw, &reqs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%s: no cell requests", path)
	}
	return reqs, nil
}

func runBatch(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	file := fs.String("file", "-", "JSON array of cell requests ('-' = stdin)")
	full := fs.Bool("full", false, "print whole records")
	fs.Parse(args)

	reqs, err := readRequests(*file)
	if err != nil {
		return err
	}
	items, err := cl.Cells(ctx, reqs)
	if err != nil {
		return err
	}
	failures := 0
	for i := range items {
		if items[i].Error != "" {
			failures++
		} else if !*full {
			items[i].Response = trim(items[i].Response, false)
		}
	}
	if err := emit(items); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d/%d batch items failed", failures, len(items))
	}
	return nil
}

func runLoad(ctx context.Context, cl *service.Client, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	file := fs.String("file", "-", "JSON array of cell requests to cycle ('-' = stdin)")
	clients := fs.Int("clients", 4, "concurrent clients")
	repeat := fs.Int("repeat", 1, "times each client walks the cell list")
	fs.Parse(args)

	cells, err := readRequests(*file)
	if err != nil {
		return err
	}
	rep, lerr := service.RunLoad(ctx, cl, service.LoadSpec{
		Clients: *clients, Repeat: *repeat, Cells: cells,
	})
	if rep != nil {
		if err := emit(rep); err != nil {
			return err
		}
	}
	return lerr
}
