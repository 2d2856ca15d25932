package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"twopage/internal/addr"
	"twopage/internal/trace"
)

// Parse builds a workload generator from a textual specification, so
// new programs can be modelled without writing Go. The format is one
// directive per line; '#' starts a comment. Sizes accept K/M suffixes
// and addresses accept 0x prefixes.
//
//	# instruction stream: 8 functions of 1024 instructions, switching
//	# every 4096 instructions, laid out 4K apart
//	code funcs=8 body=1024 visit=4096 spacing=4K base=0x1000000
//	# data references per instruction
//	dpi 0.35
//	# data streams (weights are relative):
//	seq     base=16M size=384K stride=128 weight=0.4 store=0.2
//	colwalk base=32M rows=300 cols=300 rowbytes=2400 elem=8 weight=0.4
//	uniform base=48M size=64K align=8 weight=0.2 store=0.5
//	clusters base=512M span=16M n=48 size=12K align=8 hot=0.25 hotprob=0.8 burst=12 weight=0.3
//	robin   bases=16M,17M,18M size=512K stride=520 elem=8 burst=3 weight=0.85
//	chase   base=512M span=16M clusters=64 csize=24K nodes=4096 span2=16 burst=4 weight=0.5
//
// Defaults: code (4 funcs, 1024 body, 4096 visit, 4K spacing, base
// 0x1000000) and dpi 0.35 apply if omitted. At least one data stream is
// required. seed defaults to a hash of name.
func Parse(name string, refs uint64, spec string) (trace.Reader, error) {
	p := &specParser{seed: seedFor(name)}
	for ln, raw := range strings.Split(spec, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := p.directive(line); err != nil {
			return nil, fmt.Errorf("workload: line %d: %w", ln+1, err)
		}
	}
	return p.build(name, refs)
}

// MustParse is Parse, panicking on error; for tests and fixed specs.
func MustParse(name string, refs uint64, spec string) trace.Reader {
	r, err := Parse(name, refs, spec)
	if err != nil {
		panic(err)
	}
	return r
}

// maxSpecSlots bounds the two allocations whose size a spec sets
// directly: a chase stream's node order and the bucket bitmap that
// places clusters. The built-in programs use at most 4096 nodes and 768
// buckets; the bound keeps a one-line spec from exhausting memory.
const maxSpecSlots = 1 << 20

type specParser struct {
	seed    uint64
	code    *codeWalker
	dpi     float64
	streams []weighted
}

// fields parses "k=v" pairs after the directive word.
type fields map[string]string

func parseFields(parts []string) (fields, error) {
	f := fields{}
	for _, p := range parts {
		kv := strings.SplitN(p, "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("malformed field %q (want key=value)", p)
		}
		f[kv[0]] = kv[1]
	}
	return f, nil
}

// ParseSize parses a byte count in the spec language's size syntax:
// decimal or 0x-prefixed hexadecimal, with an optional K, M or G suffix
// (powers of 1024), as in "128", "4K", "16M", "0x1000". A count whose
// byte value overflows 64 bits is an error.
func ParseSize(s string) (uint64, error) {
	mult := uint64(1)
	up := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(up, "K"):
		mult, up = 1<<10, strings.TrimSuffix(up, "K")
	case strings.HasSuffix(up, "M"):
		mult, up = 1<<20, strings.TrimSuffix(up, "M")
	case strings.HasSuffix(up, "G"):
		mult, up = 1<<30, strings.TrimSuffix(up, "G")
	}
	var v uint64
	var err error
	if strings.HasPrefix(up, "0X") {
		v, err = strconv.ParseUint(up[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(up, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v > math.MaxUint64/mult {
		return 0, fmt.Errorf("size %q overflows 64 bits", s)
	}
	return v * mult, nil
}

func (f fields) size(key string, def uint64) (uint64, error) {
	s, ok := f[key]
	if !ok {
		return def, nil
	}
	return ParseSize(s)
}

func (f fields) sizeReq(key string) (uint64, error) {
	s, ok := f[key]
	if !ok {
		return 0, fmt.Errorf("missing required field %q", key)
	}
	return ParseSize(s)
}

func (f fields) float(key string, def float64) (float64, error) {
	s, ok := f[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad float %q for %q", s, key)
	}
	return v, nil
}

func (f fields) intVal(key string, def int) (int, error) {
	s, ok := f[key]
	if !ok {
		return def, nil
	}
	v, err := ParseSize(s)
	if err != nil {
		return 0, err
	}
	return int(v), nil
}

func (p *specParser) directive(line string) error {
	parts := strings.Fields(line)
	kind := parts[0]
	if kind == "dpi" {
		if len(parts) != 2 {
			return fmt.Errorf("dpi wants one value")
		}
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || v <= 0 || v > 4 {
			return fmt.Errorf("bad dpi %q", parts[1])
		}
		p.dpi = v
		return nil
	}
	f, err := parseFields(parts[1:])
	if err != nil {
		return err
	}
	switch kind {
	case "seed":
		v, err := f.sizeReq("value")
		if err != nil {
			return err
		}
		p.seed = v
		return nil
	case "code":
		return p.parseCode(f)
	case "seq", "colwalk", "uniform", "clusters", "robin", "chase":
		return p.parseStream(kind, f)
	default:
		return fmt.Errorf("unknown directive %q", kind)
	}
}

func (p *specParser) parseCode(f fields) error {
	funcs, err := f.intVal("funcs", 4)
	if err != nil {
		return err
	}
	body, err := f.intVal("body", 1024)
	if err != nil {
		return err
	}
	visit, err := f.intVal("visit", 4096)
	if err != nil {
		return err
	}
	spacing, err := f.size("spacing", 4<<10)
	if err != nil {
		return err
	}
	base, err := f.size("base", uint64(codeBase))
	if err != nil {
		return err
	}
	if funcs < 1 || body < 1 || visit < 1 {
		return fmt.Errorf("code: funcs/body/visit must be positive")
	}
	p.code = newCodeWalker(addr.VA(base), funcs, body, visit, spacing)
	return nil
}

func (p *specParser) parseStream(kind string, f fields) error {
	weight, err := f.float("weight", 0)
	if err != nil {
		return err
	}
	if weight <= 0 {
		return fmt.Errorf("%s: positive weight required", kind)
	}
	store, err := f.float("store", 0.25)
	if err != nil {
		return err
	}
	var s stream
	switch kind {
	case "seq":
		base, err := f.sizeReq("base")
		if err != nil {
			return err
		}
		size, err := f.sizeReq("size")
		if err != nil {
			return err
		}
		stride, err := f.size("stride", 8)
		if err != nil {
			return err
		}
		if size == 0 || stride == 0 || stride >= size {
			return fmt.Errorf("seq: need 0 < stride < size")
		}
		s = &seqStream{base: addr.VA(base), size: size, stride: stride}
	case "colwalk":
		base, err := f.sizeReq("base")
		if err != nil {
			return err
		}
		rows, err := f.sizeReq("rows")
		if err != nil {
			return err
		}
		cols, err := f.sizeReq("cols")
		if err != nil {
			return err
		}
		rowBytes, err := f.sizeReq("rowbytes")
		if err != nil {
			return err
		}
		elem, err := f.size("elem", 8)
		if err != nil {
			return err
		}
		if rows == 0 || cols == 0 || rowBytes == 0 {
			return fmt.Errorf("colwalk: rows/cols/rowbytes must be positive")
		}
		s = &colWalk{base: addr.VA(base), rows: rows, cols: cols, rowBytes: rowBytes, elem: elem}
	case "uniform":
		base, err := f.sizeReq("base")
		if err != nil {
			return err
		}
		size, err := f.sizeReq("size")
		if err != nil {
			return err
		}
		align, err := f.size("align", 8)
		if err != nil {
			return err
		}
		if align == 0 || size < align {
			return fmt.Errorf("uniform: need size >= align > 0")
		}
		s = &uniformStream{base: addr.VA(base), size: size, align: align}
	case "clusters":
		base, err := f.sizeReq("base")
		if err != nil {
			return err
		}
		span, err := f.sizeReq("span")
		if err != nil {
			return err
		}
		n, err := f.intVal("n", 0)
		if err != nil {
			return err
		}
		size, err := f.sizeReq("size")
		if err != nil {
			return err
		}
		align, err := f.size("align", 8)
		if err != nil {
			return err
		}
		hot, err := f.float("hot", 0.25)
		if err != nil {
			return err
		}
		hotProb, err := f.float("hotprob", 0.75)
		if err != nil {
			return err
		}
		burst, err := f.intVal("burst", 8)
		if err != nil {
			return err
		}
		if n < 1 || size == 0 || span < size*uint64(n) {
			return fmt.Errorf("clusters: need n >= 1 and span >= n*size")
		}
		if align == 0 || size < align {
			return fmt.Errorf("clusters: need size >= align > 0")
		}
		if !(hot >= 0 && hot <= 1) {
			return fmt.Errorf("clusters: need 0 <= hot <= 1")
		}
		if err := checkPlacement(kind, span, uint64(n), size); err != nil {
			return err
		}
		r := newRNG(p.seed ^ uint64(len(p.streams)))
		cl := scatterClusters(&r, addr.VA(base), span, n, size, addr.ChunkSize)
		if size < addr.ChunkSize {
			jitterWithinChunk(&r, cl, size)
		}
		s = &clusterStream{clusters: cl, size: size, align: align,
			hotFrac: hot, hotProb: hotProb, burstLen: burst}
	case "robin":
		raw, ok := f["bases"]
		if !ok {
			return fmt.Errorf("robin: missing bases")
		}
		var bases []addr.VA
		for _, b := range strings.Split(raw, ",") {
			v, err := ParseSize(b)
			if err != nil {
				return err
			}
			bases = append(bases, addr.VA(v))
		}
		size, err := f.sizeReq("size")
		if err != nil {
			return err
		}
		stride, err := f.size("stride", 8)
		if err != nil {
			return err
		}
		elem, err := f.size("elem", 8)
		if err != nil {
			return err
		}
		burst, err := f.intVal("burst", 1)
		if err != nil {
			return err
		}
		if len(bases) == 0 || size == 0 || burst < 1 {
			return fmt.Errorf("robin: need bases, size and burst >= 1")
		}
		s = &roundRobin{bases: bases, size: size, stride: stride, elem: elem, burst: burst}
	case "chase":
		base, err := f.sizeReq("base")
		if err != nil {
			return err
		}
		span, err := f.sizeReq("span")
		if err != nil {
			return err
		}
		nClusters, err := f.intVal("clusters", 32)
		if err != nil {
			return err
		}
		csize, err := f.size("csize", 24<<10)
		if err != nil {
			return err
		}
		nodes, err := f.intVal("nodes", 4096)
		if err != nil {
			return err
		}
		nodeSpan, err := f.size("span2", 16)
		if err != nil {
			return err
		}
		burst, err := f.intVal("burst", 4)
		if err != nil {
			return err
		}
		if nClusters < 1 || nodes < 1 || csize < 64 || span < csize*uint64(nClusters) {
			return fmt.Errorf("chase: need clusters >= 1, nodes >= 1, csize >= 64, span >= clusters*csize")
		}
		if nodes > maxSpecSlots {
			return fmt.Errorf("chase: %d nodes, more than %d", nodes, maxSpecSlots)
		}
		if err := checkPlacement(kind, span, uint64(nClusters), csize); err != nil {
			return err
		}
		r := newRNG(p.seed ^ 0xC4A5E ^ uint64(len(p.streams)))
		cl := scatterClusters(&r, addr.VA(base), span, nClusters, csize, addr.ChunkSize)
		order := make([]addr.VA, nodes)
		for i := range order {
			c := cl[r.intn(uint64(len(cl)))]
			order[i] = c + addr.VA(r.intn(csize/64)*64)
		}
		s = &chaseStream{order: order, burst: burst, span: nodeSpan}
	}
	p.streams = append(p.streams, weighted{s: s, weight: weight, store: store})
	return nil
}

// checkPlacement rejects a cluster layout that scatterClusters could
// not place, or whose bucket bitmap would exceed maxSpecSlots.
func checkPlacement(kind string, span, n, size uint64) error {
	buckets, _ := clusterBuckets(span, size, addr.ChunkSize)
	switch {
	case buckets > maxSpecSlots:
		return fmt.Errorf("%s: span and size give %d placement buckets, more than %d", kind, buckets, maxSpecSlots)
	case n > buckets:
		return fmt.Errorf("%s: %d clusters of %d bytes do not fit chunk-aligned in a %d-byte span", kind, n, size, span)
	}
	return nil
}

func (p *specParser) build(name string, refs uint64) (trace.Reader, error) {
	if len(p.streams) == 0 {
		return nil, fmt.Errorf("workload %q: no data streams defined", name)
	}
	if refs == 0 {
		return nil, fmt.Errorf("workload %q: refs must be positive", name)
	}
	code := p.code
	if code == nil {
		code = newCodeWalker(codeBase, 4, 1024, 4096, 4<<10)
	}
	dpi := p.dpi
	if dpi == 0 {
		dpi = 0.35
	}
	return newProgram(p.seed, code, dpi, refs, p.streams), nil
}
