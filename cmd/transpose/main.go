// Command transpose runs a single simulated matrix transposition and prints
// a timing and traffic report.
//
// Example:
//
//	transpose -p 5 -q 5 -n 4 -layout 2d-consecutive -enc gray -alg mpt -machine ipsc-nport
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"boolcube"
)

// layoutFor parses a before-layout spec (for the p x q matrix) and an
// after-layout spec (for the transposed q x p matrix, or the p x q matrix
// itself when the algorithm does not transpose). An empty after spec reuses
// the before spec.
func layoutFor(spec, afterSpec string, p, q, n int, enc boolcube.Encoding, transposes bool) (before, after boolcube.Layout, err error) {
	full := spec
	if enc == boolcube.Gray && !hasEncSuffix(spec) {
		full = spec + ":gray"
	}
	b, err := boolcube.ParseLayout(full, p, q, n)
	if err != nil {
		return before, after, err
	}
	if afterSpec == "" {
		afterSpec = full
	} else if enc == boolcube.Gray && !hasEncSuffix(afterSpec) {
		afterSpec += ":gray"
	}
	if transposes {
		p, q = q, p
	}
	a, err := boolcube.ParseLayout(afterSpec, p, q, n)
	if err != nil {
		return before, after, fmt.Errorf("after layout: %w", err)
	}
	return b, a, nil
}

func hasEncSuffix(spec string) bool {
	return strings.HasSuffix(spec, ":gray") || strings.HasSuffix(spec, ":binary") ||
		strings.HasPrefix(spec, "custom(")
}

func machineFor(name string) (boolcube.Machine, error) {
	switch name {
	case "ipsc":
		return boolcube.IPSC(), nil
	case "ipsc-nport":
		return boolcube.IPSCNPort(), nil
	case "cm":
		return boolcube.ConnectionMachine(), nil
	case "ideal":
		return boolcube.Ideal(boolcube.OnePort), nil
	case "ideal-nport":
		return boolcube.Ideal(boolcube.NPort), nil
	}
	return boolcube.Machine{}, fmt.Errorf("unknown machine %q (ipsc, ipsc-nport, cm, ideal, ideal-nport)", name)
}

func algorithmFor(name string) (boolcube.Algorithm, error) {
	a, err := boolcube.ParseAlgorithm(name)
	if err == nil {
		return a, nil
	}
	names := []string{"auto"}
	for _, a := range boolcube.Algorithms() {
		names = append(names, a.String())
	}
	return 0, fmt.Errorf("unknown algorithm %q (%s)", name, strings.Join(names, ", "))
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "transpose: %v\n", err)
		os.Exit(1)
	}
}

func realMain(args []string, out io.Writer) error {
	flag := flag.NewFlagSet("transpose", flag.ContinueOnError)
	p := flag.Int("p", 5, "log2 of the row count")
	q := flag.Int("q", 5, "log2 of the column count")
	n := flag.Int("n", 4, "cube dimensions")
	layout := flag.String("layout", "2d-consecutive", "partitioning spec: named (1d-consecutive-rows, 1d-cyclic-cols, 2d-consecutive, 2d-cyclic, 2d-mixed, 2d-mixed-enc, banded:<nc>,<s>) or custom([lo,hi):enc+...)")
	afterSpec := flag.String("after", "", "layout of the transposed matrix (default: same spec)")
	encName := flag.String("enc", "binary", "encoding (binary, gray)")
	algName := flag.String("alg", "exchange", "algorithm (auto or see boolcube.Algorithms)")
	machName := flag.String("machine", "ipsc", "machine model")
	backend := flag.String("backend", "", "fabric backend (simnet, livenet; default simnet)")
	copies := flag.Bool("copies", false, "charge local pack/unpack copies")
	traceOut := flag.Bool("trace", false, "print an operation timeline (Gantt) of the run")
	tau := flag.Float64("tau", -1, "override start-up time τ (µs)")
	tc := flag.Float64("tc", -1, "override per-byte transfer time (µs)")
	bm := flag.Int("bm", -1, "override max packet size (bytes)")
	if err := flag.Parse(args); err != nil {
		return err
	}

	enc := boolcube.Binary
	if *encName == "gray" {
		enc = boolcube.Gray
	} else if *encName != "binary" {
		return fmt.Errorf("unknown encoding %q", *encName)
	}

	alg, err := algorithmFor(*algName)
	if err != nil {
		return err
	}
	before, after, err := layoutFor(*layout, *afterSpec, *p, *q, *n, enc, alg.Transposes())
	if err != nil {
		return err
	}
	mach, err := machineFor(*machName)
	if err != nil {
		return err
	}
	if *tau >= 0 {
		mach.Tau = *tau
	}
	if *tc >= 0 {
		mach.Tc = *tc
	}
	if *bm >= 0 {
		mach.Bm = *bm
	}
	caps, ok := boolcube.BackendCapabilities(*backend)
	if !ok {
		return &boolcube.UnknownBackendError{Backend: *backend, Known: boolcube.Backends()}
	}

	m := boolcube.NewIotaMatrix(*p, *q)
	d := boolcube.Scatter(m, before)

	opt := boolcube.Options{Algorithm: alg, Machine: mach, LocalCopies: *copies, Backend: *backend}
	ct, err := boolcube.Compile(before, after, opt)
	if err != nil {
		return err
	}
	alg = ct.Algorithm() // the concrete algorithm when -alg auto
	xo := boolcube.ExecOptions{Backend: *backend}
	if *traceOut {
		opt.Trace = boolcube.NewTrace()
		xo.Tracer = opt.Trace
	}
	res, err := ct.ExecuteWith(d, xo)
	if err != nil {
		return err
	}
	want := m
	if alg.Transposes() {
		want = m.Transposed()
	}
	if verr := res.Dist.Verify(want); verr != nil {
		return fmt.Errorf("result verification failed: %w", verr)
	}

	st := res.Stats
	fmt.Fprintf(out, "matrix:            %dx%d (%d KB of %d-byte elements)\n",
		m.Rows(), m.Cols(), m.Rows()*m.Cols()*mach.ElemBytes/1024, mach.ElemBytes)
	fmt.Fprintf(out, "cube:              %d dimensions, %d processors (%s)\n", *n, 1<<uint(*n), mach.Ports)
	fmt.Fprintf(out, "layout:            %s -> %s\n", before, after)
	if alg.Transposes() {
		cls, err := boolcube.Classify(before, after)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "communication:     %s (k=%d splitting, l=%d exchange steps)\n", cls.Pattern, cls.K, cls.L)
	}
	backendName := *backend
	if backendName == "" {
		backendName = "simnet"
	}
	fmt.Fprintf(out, "algorithm:         %s on %s (backend %s)\n", alg, mach.Name, backendName)
	fmt.Fprintf(out, "result:            verified element-exact\n")
	fmt.Fprintf(out, "predicted time:    %.3f ms (plan price)\n", ct.PredictedCost()/1000)
	timeLabel := "simulated time: "
	if !caps.VirtualTime {
		timeLabel = "elapsed time:   "
	}
	fmt.Fprintf(out, "%s   %.3f ms\n", timeLabel, st.Time/1000)
	fmt.Fprintf(out, "start-ups:         %d\n", st.Startups)
	fmt.Fprintf(out, "messages (hops):   %d\n", st.Sends)
	fmt.Fprintf(out, "bytes over links:  %d\n", st.Bytes)
	fmt.Fprintf(out, "copy time:         %.3f ms over %d bytes\n", st.CopyTime/1000, st.CopyBytes)
	fmt.Fprintf(out, "max link load:     %d bytes, %.3f ms busy\n", st.MaxLinkBytes, st.MaxLinkBusy/1000)
	if opt.Trace != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, opt.Trace.Gantt(100))
	}
	return nil
}
