package comm

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// pinCase is one row of TestExchangeBlocksPinned: what the exchange
// delivered (a digest of every delivery, in delivery order), what it cost,
// and the digest of its timed-operation trace.
type pinCase struct {
	deliveries, trace uint64
	stats             pinStats
}

// pinStats is the slice of fabric.Stats an exchange run produces.
type pinStats struct {
	Sends, Startups, Bytes, CopyBytes int64
	Time                              float64
	MaxLinkBytes                      int64
	MaxLinkBusy                       float64
}

// traceHash folds every traced operation into a digest, in engine order.
type traceHash struct{ h hash.Hash64 }

func (t traceHash) Record(ev fabric.TraceEvent) {
	fmt.Fprintf(t.h, "%d %s %d %d %x %x\n", ev.Node, ev.Kind, ev.Dim, ev.Bytes,
		math.Float64bits(ev.Start), math.Float64bits(ev.End))
}

// pinBlocks is node id's input for one pinned run on an n-cube: a seeded,
// sparse subset of the destinations the exchange over dims can reach, each
// with a random destination on the other dimensions, heterogeneous sizes
// (empty payloads and runs past the iPSC's BCopy included), a few repeated
// (src, dst) pairs, checksums on some blocks and address tags on others.
func pinBlocks(id uint64, n int, dims []int) []Block {
	rng := rand.New(rand.NewSource(int64(id)*7919 + int64(len(dims))))
	var mask uint64
	for _, d := range dims {
		mask |= 1 << uint(d)
	}
	outside := uint64(1)<<uint(n) - 1&^mask
	var blocks []Block
	for _, dst := range subcube(id, dims) {
		if rng.Intn(4) == 0 {
			continue
		}
		for copies := 1 + rng.Intn(5)/4; copies > 0; copies-- {
			size := rng.Intn(4)
			if rng.Intn(8) == 0 {
				size = 30 + rng.Intn(31)
			}
			b := Block{Src: id, Dst: dst&mask | rng.Uint64()&outside, Data: make([]float64, size)}
			for i := range b.Data {
				b.Data[i] = float64(b.Src)*1e6 + float64(b.Dst)*1e3 + float64(i) + float64(copies)/8
			}
			switch rng.Intn(3) {
			case 0:
				b.Sum = fabric.Checksum(b.Data)
			case 1:
				b.Tags = make([]uint64, size)
				for i := range b.Tags {
					b.Tags[i] = b.Src<<32 | uint64(i)
				}
			}
			blocks = append(blocks, b)
		}
	}
	return blocks
}

// TestExchangeBlocksPinned pins ExchangeBlocksHooked's deliveries, Stats and
// trace to recorded values — how the exchange stores what a node holds must
// not change any of them — over dimension orders the registry does not
// exercise (a random permutation, a non-contiguous subset), all four
// strategies, the three machines, and hooked and unhooked runs.
func TestExchangeBlocksPinned(t *testing.T) {
	const n = 6
	orders := []struct {
		name string
		dims []int
	}{
		{"descending", DescendingDims(n)},
		{"paired", PairedDims(n)},
		{"random", []int{2, 5, 0, 3, 1, 4}},
		{"subset", []int{4, 1, 2}},
	}
	machines := []struct {
		name string
		p    machine.Params
	}{
		{"ipsc", machine.IPSC()},
		{"ipsc-nport", machine.IPSCNPort()},
		{"cm", machine.ConnectionMachine()},
	}
	for _, o := range orders {
		for _, strat := range []Strategy{SingleMessage, Shuffled, Unbuffered, Buffered} {
			for _, m := range machines {
				for _, hooked := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/%s/hooked=%v", o.name, strat, m.name, hooked)
					t.Run(name, func(t *testing.T) {
						got := runPinned(t, n, o.dims, strat, m.p, hooked)
						want, ok := exchangePins[name]
						if !ok || got != want {
							t.Errorf("got  %q: {%#x, %#x, pinStats{%d, %d, %d, %d, %v, %d, %v}},\nwant %+v",
								name, got.deliveries, got.trace, got.stats.Sends, got.stats.Startups,
								got.stats.Bytes, got.stats.CopyBytes, got.stats.Time,
								got.stats.MaxLinkBytes, got.stats.MaxLinkBusy, want)
						}
					})
				}
			}
		}
	}
}

// runPinned runs one pinned exchange and digests it. Each node records its
// deliveries — (step, Src, Dst, Sum, Data, Tags) in the order the hook saw
// them, or the returned blocks in order — into its own slice; the digest
// walks the nodes in address order once the run is over.
func runPinned(t *testing.T, n int, dims []int, strat Strategy, p machine.Params, hooked bool) pinCase {
	t.Helper()
	e := newEngine(t, n, p)
	tr := traceHash{fnv.New64a()}
	e.SetTracer(tr)
	rec := make([][]byte, e.Nodes())
	err := e.Run(func(nd fabric.Node) {
		id := nd.ID()
		put := func(step int, b Block) {
			r := rec[id]
			r = binary.LittleEndian.AppendUint64(r, uint64(int64(step)))
			r = binary.LittleEndian.AppendUint64(r, b.Src)
			r = binary.LittleEndian.AppendUint64(r, b.Dst)
			r = binary.LittleEndian.AppendUint64(r, b.Sum)
			r = binary.LittleEndian.AppendUint64(r, uint64(len(b.Data)))
			for _, v := range b.Data {
				r = binary.LittleEndian.AppendUint64(r, math.Float64bits(v))
			}
			r = binary.LittleEndian.AppendUint64(r, uint64(len(b.Tags)))
			for _, v := range b.Tags {
				r = binary.LittleEndian.AppendUint64(r, v)
			}
			rec[id] = r
		}
		blocks := pinBlocks(id, n, dims)
		if !hooked {
			for _, b := range ExchangeBlocks(nd, dims, strat, blocks) {
				put(0, b)
			}
			return
		}
		if out := ExchangeBlocksHooked(nd, dims, strat, blocks, ExchangeHooks{OnFinal: put}); out != nil {
			panic("hooked exchange returned blocks")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range rec {
		h.Write(r)
		h.Write([]byte{0xff})
	}
	st := e.Stats()
	return pinCase{deliveries: h.Sum64(), trace: tr.h.Sum64(), stats: pinStats{
		Sends: st.Sends, Startups: st.Startups, Bytes: st.Bytes, CopyBytes: st.CopyBytes,
		Time: st.Time, MaxLinkBytes: st.MaxLinkBytes, MaxLinkBusy: st.MaxLinkBusy,
	}}
}

// exchangePins are the recorded values, keyed by subtest name. On a
// mismatch the test prints the new row in this form.
var exchangePins = map[string]pinCase{
	"descending/single-message/ipsc/hooked=false":       {0xd3239a49258ac31f, 0x61878afe85d6cc56, pinStats{384, 466, 296840, 0, 67956, 2200, 17200}},
	"descending/single-message/ipsc/hooked=true":        {0x198ac5f9f8fda1ce, 0x61878afe85d6cc56, pinStats{384, 466, 296840, 0, 67956, 2200, 17200}},
	"descending/single-message/ipsc-nport/hooked=false": {0xd3239a49258ac31f, 0x197ce2a849e8d8fd, pinStats{384, 466, 296840, 0, 56932, 2200, 17200}},
	"descending/single-message/ipsc-nport/hooked=true":  {0x198ac5f9f8fda1ce, 0x197ce2a849e8d8fd, pinStats{384, 466, 296840, 0, 56932, 2200, 17200}},
	"descending/single-message/cm/hooked=false":         {0xd3239a49258ac31f, 0x7c63fa698c4568c9, pinStats{384, 384, 296840, 0, 2033, 2200, 600}},
	"descending/single-message/cm/hooked=true":          {0x198ac5f9f8fda1ce, 0x7c63fa698c4568c9, pinStats{384, 384, 296840, 0, 2033, 2200, 600}},
	"descending/shuffled/ipsc/hooked=false":             {0xd3239a49258ac31f, 0x98f8ddb09bfdb3d2, pinStats{384, 466, 296840, 501680, 166602.96399999998, 2200, 17200}},
	"descending/shuffled/ipsc/hooked=true":              {0x198ac5f9f8fda1ce, 0x98f8ddb09bfdb3d2, pinStats{384, 466, 296840, 501680, 166602.96399999998, 2200, 17200}},
	"descending/shuffled/ipsc-nport/hooked=false":       {0xd3239a49258ac31f, 0xc00e4fce4b913821, pinStats{384, 466, 296840, 501680, 166602.96399999998, 2200, 17200}},
	"descending/shuffled/ipsc-nport/hooked=true":        {0x198ac5f9f8fda1ce, 0xc00e4fce4b913821, pinStats{384, 466, 296840, 501680, 166602.96399999998, 2200, 17200}},
	"descending/shuffled/cm/hooked=false":               {0xd3239a49258ac31f, 0x20d7f89121875dce, pinStats{384, 384, 296840, 501680, 2583.7999999999997, 2200, 600}},
	"descending/shuffled/cm/hooked=true":                {0x198ac5f9f8fda1ce, 0x20d7f89121875dce, pinStats{384, 384, 296840, 501680, 2583.7999999999997, 2200, 600}},
	"descending/unbuffered/ipsc/hooked=false":           {0xd3239a49258ac31f, 0xadf963b126919fa4, pinStats{4032, 3134, 296840, 0, 296236, 2200, 135996}},
	"descending/unbuffered/ipsc/hooked=true":            {0x198ac5f9f8fda1ce, 0xadf963b126919fa4, pinStats{4032, 3134, 296840, 0, 296236, 2200, 135996}},
	"descending/unbuffered/ipsc-nport/hooked=false":     {0xd3239a49258ac31f, 0x4cd87baed31f7edd, pinStats{4032, 3134, 296840, 0, 295804, 2200, 135996}},
	"descending/unbuffered/ipsc-nport/hooked=true":      {0x198ac5f9f8fda1ce, 0x4cd87baed31f7edd, pinStats{4032, 3134, 296840, 0, 295804, 2200, 135996}},
	"descending/unbuffered/cm/hooked=false":             {0xd3239a49258ac31f, 0x13ba400ddc514a55, pinStats{4032, 3120, 296840, 0, 4323, 2200, 1643}},
	"descending/unbuffered/cm/hooked=true":              {0x198ac5f9f8fda1ce, 0x13ba400ddc514a55, pinStats{4032, 3120, 296840, 0, 4323, 2200, 1643}},
	"descending/buffered/ipsc/hooked=false":             {0xd3239a49258ac31f, 0x30764cb12fa46b01, pinStats{576, 616, 296840, 154336, 117768.17199999998, 2200, 21716}},
	"descending/buffered/ipsc/hooked=true":              {0xbcaca459b40758ce, 0x30764cb12fa46b01, pinStats{576, 616, 296840, 154336, 117768.17199999998, 2200, 21716}},
	"descending/buffered/ipsc-nport/hooked=false":       {0xd3239a49258ac31f, 0xcc63daa774e55f57, pinStats{576, 616, 296840, 154336, 116579.108, 2200, 21716}},
	"descending/buffered/ipsc-nport/hooked=true":        {0xbcaca459b40758ce, 0xcc63daa774e55f57, pinStats{576, 616, 296840, 154336, 116579.108, 2200, 21716}},
	"descending/buffered/cm/hooked=false":               {0xd3239a49258ac31f, 0x5649e63a553b8433, pinStats{384, 384, 296840, 296840, 2385.6, 2200, 600}},
	"descending/buffered/cm/hooked=true":                {0x198ac5f9f8fda1ce, 0x5649e63a553b8433, pinStats{384, 384, 296840, 296840, 2385.6, 2200, 600}},
	"paired/single-message/ipsc/hooked=false":           {0xbc205894748e47f7, 0xdf209878664a87c5, pinStats{384, 462, 296840, 0, 68480, 1904, 11904}},
	"paired/single-message/ipsc/hooked=true":            {0x31db0bccd4c8c939, 0xdf209878664a87c5, pinStats{384, 462, 296840, 0, 68480, 1904, 11904}},
	"paired/single-message/ipsc-nport/hooked=false":     {0xbc205894748e47f7, 0x97be16bbcf7c20ad, pinStats{384, 462, 296840, 0, 62732, 1904, 11904}},
	"paired/single-message/ipsc-nport/hooked=true":      {0x31db0bccd4c8c939, 0x97be16bbcf7c20ad, pinStats{384, 462, 296840, 0, 62732, 1904, 11904}},
	"paired/single-message/cm/hooked=false":             {0xbc205894748e47f7, 0x17cbd1fb24dd6b9b, pinStats{384, 384, 296840, 0, 2233, 1904, 526}},
	"paired/single-message/cm/hooked=true":              {0x31db0bccd4c8c939, 0x17cbd1fb24dd6b9b, pinStats{384, 384, 296840, 0, 2233, 1904, 526}},
	"paired/shuffled/ipsc/hooked=false":                 {0xbc205894748e47f7, 0x656d7d4646c339e4, pinStats{384, 462, 296840, 501680, 178342.712, 1904, 11904}},
	"paired/shuffled/ipsc/hooked=true":                  {0x31db0bccd4c8c939, 0x656d7d4646c339e4, pinStats{384, 462, 296840, 501680, 178342.712, 1904, 11904}},
	"paired/shuffled/ipsc-nport/hooked=false":           {0xbc205894748e47f7, 0x49ee05e30cda4801, pinStats{384, 462, 296840, 501680, 178342.712, 1904, 11904}},
	"paired/shuffled/ipsc-nport/hooked=true":            {0x31db0bccd4c8c939, 0x49ee05e30cda4801, pinStats{384, 462, 296840, 501680, 178342.712, 1904, 11904}},
	"paired/shuffled/cm/hooked=false":                   {0xbc205894748e47f7, 0x1ff98b6267849238, pinStats{384, 384, 296840, 501680, 2786.8, 1904, 526}},
	"paired/shuffled/cm/hooked=true":                    {0x31db0bccd4c8c939, 0x1ff98b6267849238, pinStats{384, 384, 296840, 501680, 2786.8, 1904, 526}},
	"paired/unbuffered/ipsc/hooked=false":               {0xbc205894748e47f7, 0x4c79943f1d635657, pinStats{4032, 3144, 296840, 0, 301124, 1904, 135996}},
	"paired/unbuffered/ipsc/hooked=true":                {0x31db0bccd4c8c939, 0x4c79943f1d635657, pinStats{4032, 3144, 296840, 0, 301124, 1904, 135996}},
	"paired/unbuffered/ipsc-nport/hooked=false":         {0xbc205894748e47f7, 0x252b2fbddb3b5f1f, pinStats{4032, 3144, 296840, 0, 299912, 1904, 135996}},
	"paired/unbuffered/ipsc-nport/hooked=true":          {0x31db0bccd4c8c939, 0x252b2fbddb3b5f1f, pinStats{4032, 3144, 296840, 0, 299912, 1904, 135996}},
	"paired/unbuffered/cm/hooked=false":                 {0xbc205894748e47f7, 0x1db56f4a14fab165, pinStats{4032, 3126, 296840, 0, 4618, 1904, 1643}},
	"paired/unbuffered/cm/hooked=true":                  {0x31db0bccd4c8c939, 0x1db56f4a14fab165, pinStats{4032, 3126, 296840, 0, 4618, 1904, 1643}},
	"paired/buffered/ipsc/hooked=false":                 {0xbc205894748e47f7, 0xfdffb86f4d2490e, pinStats{566, 606, 296840, 151120, 123015.264, 1904, 21780}},
	"paired/buffered/ipsc/hooked=true":                  {0x70fad37927dde539, 0xfdffb86f4d2490e, pinStats{566, 606, 296840, 151120, 123015.264, 1904, 21780}},
	"paired/buffered/ipsc-nport/hooked=false":           {0xbc205894748e47f7, 0x77e7c634fa2bc19d, pinStats{566, 606, 296840, 151120, 123015.264, 1904, 21780}},
	"paired/buffered/ipsc-nport/hooked=true":            {0x70fad37927dde539, 0x77e7c634fa2bc19d, pinStats{566, 606, 296840, 151120, 123015.264, 1904, 21780}},
	"paired/buffered/cm/hooked=false":                   {0xbc205894748e47f7, 0xac1e2f425e2109da, pinStats{384, 384, 296840, 296840, 2625.6000000000004, 1904, 526}},
	"paired/buffered/cm/hooked=true":                    {0x31db0bccd4c8c939, 0xac1e2f425e2109da, pinStats{384, 384, 296840, 296840, 2625.6000000000004, 1904, 526}},
	"random/single-message/ipsc/hooked=false":           {0x2aff5c4e5a9137df, 0x4f229fefe70d2fbe, pinStats{384, 469, 296840, 0, 69828, 1832, 11832}},
	"random/single-message/ipsc/hooked=true":            {0xcbd31c18d09e47cc, 0x4f229fefe70d2fbe, pinStats{384, 469, 296840, 0, 69828, 1832, 11832}},
	"random/single-message/ipsc-nport/hooked=false":     {0x2aff5c4e5a9137df, 0xe0689189dd112717, pinStats{384, 469, 296840, 0, 69004, 1832, 11832}},
	"random/single-message/ipsc-nport/hooked=true":      {0xcbd31c18d09e47cc, 0xe0689189dd112717, pinStats{384, 469, 296840, 0, 69004, 1832, 11832}},
	"random/single-message/cm/hooked=false":             {0x2aff5c4e5a9137df, 0xe75ec305b183d3a5, pinStats{384, 384, 296840, 0, 2551, 1832, 508}},
	"random/single-message/cm/hooked=true":              {0xcbd31c18d09e47cc, 0xe75ec305b183d3a5, pinStats{384, 384, 296840, 0, 2551, 1832, 508}},
	"random/shuffled/ipsc/hooked=false":                 {0x2aff5c4e5a9137df, 0xfb3278a08aaaaf75, pinStats{384, 469, 296840, 501680, 191068.024, 1832, 11832}},
	"random/shuffled/ipsc/hooked=true":                  {0xcbd31c18d09e47cc, 0xfb3278a08aaaaf75, pinStats{384, 469, 296840, 501680, 191068.024, 1832, 11832}},
	"random/shuffled/ipsc-nport/hooked=false":           {0x2aff5c4e5a9137df, 0x572e850ff437154b, pinStats{384, 469, 296840, 501680, 191068.024, 1832, 11832}},
	"random/shuffled/ipsc-nport/hooked=true":            {0xcbd31c18d09e47cc, 0x572e850ff437154b, pinStats{384, 469, 296840, 501680, 191068.024, 1832, 11832}},
	"random/shuffled/cm/hooked=false":                   {0x2aff5c4e5a9137df, 0x8bdf4b133570d8a0, pinStats{384, 384, 296840, 501680, 3202.3999999999996, 1832, 508}},
	"random/shuffled/cm/hooked=true":                    {0xcbd31c18d09e47cc, 0x8bdf4b133570d8a0, pinStats{384, 384, 296840, 501680, 3202.3999999999996, 1832, 508}},
	"random/unbuffered/ipsc/hooked=false":               {0x2aff5c4e5a9137df, 0x17dcb584cb9e1486, pinStats{4032, 3119, 296840, 0, 301264, 1832, 130952}},
	"random/unbuffered/ipsc/hooked=true":                {0xcbd31c18d09e47cc, 0x17dcb584cb9e1486, pinStats{4032, 3119, 296840, 0, 301264, 1832, 130952}},
	"random/unbuffered/ipsc-nport/hooked=false":         {0x2aff5c4e5a9137df, 0x3809ebeff511d659, pinStats{4032, 3119, 296840, 0, 290820, 1832, 130952}},
	"random/unbuffered/ipsc-nport/hooked=true":          {0xcbd31c18d09e47cc, 0x3809ebeff511d659, pinStats{4032, 3119, 296840, 0, 290820, 1832, 130952}},
	"random/unbuffered/cm/hooked=false":                 {0x2aff5c4e5a9137df, 0x9d723a04e4872999, pinStats{4032, 3103, 296840, 0, 4851, 1832, 1587}},
	"random/unbuffered/cm/hooked=true":                  {0xcbd31c18d09e47cc, 0x9d723a04e4872999, pinStats{4032, 3103, 296840, 0, 4851, 1832, 1587}},
	"random/buffered/ipsc/hooked=false":                 {0x2aff5c4e5a9137df, 0xdcceaa7aef0f1, pinStats{581, 618, 296840, 148144, 125237.47599999998, 1832, 21624}},
	"random/buffered/ipsc/hooked=true":                  {0x25b3ec435a8e3f98, 0xdcceaa7aef0f1, pinStats{581, 618, 296840, 148144, 125237.47599999998, 1832, 21624}},
	"random/buffered/ipsc-nport/hooked=false":           {0x2aff5c4e5a9137df, 0x490cc76f644af201, pinStats{581, 618, 296840, 148144, 125237.47599999998, 1832, 21624}},
	"random/buffered/ipsc-nport/hooked=true":            {0x25b3ec435a8e3f98, 0x490cc76f644af201, pinStats{581, 618, 296840, 148144, 125237.47599999998, 1832, 21624}},
	"random/buffered/cm/hooked=false":                   {0x2aff5c4e5a9137df, 0xe83f25180d6f7555, pinStats{384, 384, 296840, 296840, 3007.2, 1832, 508}},
	"random/buffered/cm/hooked=true":                    {0xcbd31c18d09e47cc, 0xe83f25180d6f7555, pinStats{384, 384, 296840, 296840, 3007.2, 1832, 508}},
	"subset/single-message/ipsc/hooked=false":           {0xb1ca8818e60d831, 0xfae9039cca0b7574, pinStats{192, 152, 18552, 0, 16848, 964, 5964}},
	"subset/single-message/ipsc/hooked=true":            {0x33314ae9b2a62b80, 0xfae9039cca0b7574, pinStats{192, 152, 18552, 0, 16848, 964, 5964}},
	"subset/single-message/ipsc-nport/hooked=false":     {0xb1ca8818e60d831, 0x9c4d5baa66524aeb, pinStats{192, 152, 18552, 0, 16796, 964, 5964}},
	"subset/single-message/ipsc-nport/hooked=true":      {0x33314ae9b2a62b80, 0x9c4d5baa66524aeb, pinStats{192, 152, 18552, 0, 16796, 964, 5964}},
	"subset/single-message/cm/hooked=false":             {0xb1ca8818e60d831, 0x4a19291f25872f77, pinStats{192, 152, 18552, 0, 599, 964, 291}},
	"subset/single-message/cm/hooked=true":              {0x33314ae9b2a62b80, 0x4a19291f25872f77, pinStats{192, 152, 18552, 0, 599, 964, 291}},
	"subset/shuffled/ipsc/hooked=false":                 {0xb1ca8818e60d831, 0x6a32dbc4f2ea2248, pinStats{192, 152, 18552, 25776, 37496.068, 964, 5964}},
	"subset/shuffled/ipsc/hooked=true":                  {0x33314ae9b2a62b80, 0x6a32dbc4f2ea2248, pinStats{192, 152, 18552, 25776, 37496.068, 964, 5964}},
	"subset/shuffled/ipsc-nport/hooked=false":           {0xb1ca8818e60d831, 0x5ffa75e9ad6f5c4d, pinStats{192, 152, 18552, 25776, 37496.068, 964, 5964}},
	"subset/shuffled/ipsc-nport/hooked=true":            {0x33314ae9b2a62b80, 0x5ffa75e9ad6f5c4d, pinStats{192, 152, 18552, 25776, 37496.068, 964, 5964}},
	"subset/shuffled/cm/hooked=false":                   {0xb1ca8818e60d831, 0x83f10a2cddfce4c2, pinStats{192, 152, 18552, 25776, 690.8, 964, 291}},
	"subset/shuffled/cm/hooked=true":                    {0x33314ae9b2a62b80, 0x83f10a2cddfce4c2, pinStats{192, 152, 18552, 25776, 690.8, 964, 291}},
	"subset/unbuffered/ipsc/hooked=false":               {0xb1ca8818e60d831, 0xe245409bbd5971e1, pinStats{448, 243, 18552, 0, 36848, 964, 20964}},
	"subset/unbuffered/ipsc/hooked=true":                {0x33314ae9b2a62b80, 0xe245409bbd5971e1, pinStats{448, 243, 18552, 0, 36848, 964, 20964}},
	"subset/unbuffered/ipsc-nport/hooked=false":         {0xb1ca8818e60d831, 0x5bb762896f56bf21, pinStats{448, 243, 18552, 0, 36796, 964, 20964}},
	"subset/unbuffered/ipsc-nport/hooked=true":          {0x33314ae9b2a62b80, 0x5bb762896f56bf21, pinStats{448, 243, 18552, 0, 36796, 964, 20964}},
	"subset/unbuffered/cm/hooked=false":                 {0xb1ca8818e60d831, 0xd8cc7e022133a2d, pinStats{448, 243, 18552, 0, 799, 964, 441}},
	"subset/unbuffered/cm/hooked=true":                  {0x33314ae9b2a62b80, 0xd8cc7e022133a2d, pinStats{448, 243, 18552, 0, 799, 964, 441}},
	"subset/buffered/ipsc/hooked=false":                 {0xb1ca8818e60d831, 0xc7cf497e5fef82fb, pinStats{198, 158, 18552, 13660, 41696.748, 964, 10964}},
	"subset/buffered/ipsc/hooked=true":                  {0xb8596a0fec78f5e0, 0xc7cf497e5fef82fb, pinStats{198, 158, 18552, 13660, 41696.748, 964, 10964}},
	"subset/buffered/ipsc-nport/hooked=false":           {0xb1ca8818e60d831, 0x53bbc02dec4f937e, pinStats{198, 158, 18552, 13660, 41696.748, 964, 10964}},
	"subset/buffered/ipsc-nport/hooked=true":            {0xb8596a0fec78f5e0, 0x53bbc02dec4f937e, pinStats{198, 158, 18552, 13660, 41696.748, 964, 10964}},
	"subset/buffered/cm/hooked=false":                   {0xb1ca8818e60d831, 0x92c5cce0fe3433d0, pinStats{192, 152, 18552, 18552, 691.8, 964, 291}},
	"subset/buffered/cm/hooked=true":                    {0x33314ae9b2a62b80, 0x92c5cce0fe3433d0, pinStats{192, 152, 18552, 18552, 691.8, 964, 291}},
}
