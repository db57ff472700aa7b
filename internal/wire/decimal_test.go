package wire

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"revnf/internal/workload"
)

// jsonNumber is RFC 8259's number grammar, the oracle for what the
// scanner accepts.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// parseToken reads tok the way a float field is read: the whole token
// must be one number.
func parseToken(tok string) (float64, error) {
	o := object{b: []byte(tok)}
	f := o.float()
	if o.err == nil && o.p != len(tok) {
		return 0, fmt.Errorf("%w: %q read only to offset %d", ErrBadJSON, tok, o.p)
	}
	return f, o.err
}

// kernel runs the scanner and the integer kernel alone, without the
// strconv fallback; ok is false where the kernel declines.
func kernel(tok string) (f float64, ok bool) {
	o := object{b: []byte(tok)}
	if o.number(); o.err != nil || o.p != len(tok) {
		return 0, false
	}
	return o.num.float()
}

// matchesStrconv requires parseToken to give strconv.ParseFloat's bits
// for a JSON number, or the error strconv gives.
func matchesStrconv(t testing.TB, tok string) {
	t.Helper()
	got, err := parseToken(tok)
	want, werr := strconv.ParseFloat(tok, 64)
	var ne *strconv.NumError
	switch {
	case errors.As(werr, &ne):
		if !errors.Is(err, ErrBadJSON) || !errors.Is(err, ne.Err) {
			t.Fatalf("%q: err %v, strconv says %v", tok, err, werr)
		}
	case err != nil:
		t.Fatalf("%q: %v, strconv reads %v", tok, err, want)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q = %v (%#x), strconv reads %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// midpoints returns exact binary midpoints — (2·mant+1) × 2^j, halfway
// between two adjacent float64s — written as decimals of at most 19
// significant digits, with their neighbours ±1 in the last digit.
func midpoints(mants []uint64) []string {
	var out []string
	for _, mant := range mants {
		odd := new(big.Int).SetUint64(2*mant + 1)
		for j := -6; j <= 12; j++ {
			n, e := new(big.Int).Set(odd), 0
			if j >= 0 {
				n.Lsh(n, uint(j))
			} else { // (2·mant+1) / 2^k = (2·mant+1)·5^k / 10^k
				n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-j)), nil))
				e = j
			}
			if len(strings.TrimRight(n.String(), "0")) > maxDigits {
				continue
			}
			for _, delta := range []int64{0, -1, 1} {
				m := new(big.Int).Add(n, big.NewInt(delta))
				out = append(out, fmt.Sprintf("%se%d", m, e))
			}
		}
	}
	return out
}

// poolRequests draws requests the way the benchmark's pool does
// (benchmark/rig.go: workload.GenerateTrace over the default catalog
// and the default setup's ranges) and returns them as wire requests.
func poolRequests(tb testing.TB, n int, seed int64) []Request {
	tb.Helper()
	reqs, err := workload.GenerateTrace(workload.TraceConfig{
		Requests: n, Horizon: 64, MinDuration: 1, MaxDuration: 10,
		MinRequirement: 0.90, MaxRequirement: 0.95, MaxPaymentRate: 10, H: 10,
	}, workload.DefaultCatalog(), rand.New(rand.NewSource(seed)))
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]Request, n)
	for i, r := range reqs {
		out[i] = Request{VNF: r.VNF, Duration: r.Duration, Reliability: r.Reliability, Payment: r.Payment}
	}
	return out
}

func TestDecimalMatchesStrconv(t *testing.T) {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	rng := rand.New(rand.NewSource(25))
	var toks []string
	for i := 0; i < 50_000; i++ {
		toks = append(toks, g(rng.Float64()), g(100*rng.Float64()))
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			toks = append(toks, g(f))
		}
		// Significands of 1–20 digits at every exponent the kernel takes
		// and one past either end.
		digits := 1 + rng.Intn(maxDigits+1)
		m := strconv.FormatUint(rng.Uint64(), 10)
		for len(m) < digits {
			m += strconv.FormatUint(rng.Uint64(), 10)
		}
		toks = append(toks, fmt.Sprintf("%se%d", m[:digits], rng.Intn(2*maxPow5+3)-maxPow5-1))
	}
	toks = append(toks, midpoints([]uint64{1 << 52, 1<<52 + 1, 1<<53 - 1, 1<<52 + 0x12345, 0x1b3a2f7e9c4d5})...)
	inRange := []string{
		// Ties: to even below (2^53+1 → 2^53) and above (2^53+3 → 2^53+4).
		"9007199254740993", "9007199254740995", "18014398509481986", "9223372036854776832",
		"4503599627370496.5", "2251799813685248.25", "-9007199254740993",
		// 19 significant digits, with leading and trailing zeros around them.
		"9999999999999999999", "1000000000000000001", "0.0001234567890123456789",
		"1234567890123456789000000", "1234567890123456789.000000000000", "12345678901234567890",
		// Both ends of the exponent range.
		"1e-27", "1e27", "9999999999999999999e27", "9999999999999999999e-27", "1234567890123456789e-27",
		"0.000000000000000000000000001", "1000000000000000000000000000", "7e+27", "5E-27",
		"-0", "-0.0", "0", "0e-999", "-0E+999", "0.000",
	}
	outOfRange := []string{
		"1e-28", "1e28", "9999999999999999999e28", "1234567890123456789e-28",
		"0.0000000000000000000000000001", "12345678901234567891", "1.0000000000000000001",
		"1e309", "-1e309", "1e-400", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
		"1" + strings.Repeat("0", 400), "0." + strings.Repeat("0", 20_000) + "1e20005",
	}
	for _, tok := range inRange {
		if _, ok := kernel(tok); !ok {
			t.Errorf("%q: the kernel declines a number inside its range", tok)
		}
	}
	for _, tok := range outOfRange {
		if _, ok := kernel(tok); ok {
			t.Errorf("%q: the kernel takes a number outside its range", tok)
		}
	}
	// Every float of the benchmark's pool is inside the range.
	for _, r := range poolRequests(t, 20_000, 1) {
		for _, f := range []float64{r.Reliability, r.Payment} {
			if _, ok := kernel(g(f)); !ok {
				t.Fatalf("pool float %s is outside the kernel's range", g(f))
			}
		}
	}
	for _, tok := range append(append(toks, inRange...), outOfRange...) {
		matchesStrconv(t, tok)
	}
}

// TestEightDigits pins the SWAR step to the byte loop it stands for.
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100_000; i++ {
		var b [8]byte
		for j := range b {
			b[j] = byte('0' + rng.Intn(10))
		}
		if i%2 == 1 { // one byte that is not a digit
			b[rng.Intn(8)] = byte(rng.Intn(256))
		}
		want, digits := uint64(0), true
		for _, c := range b {
			digits = digits && c-'0' < 10
			want = want*10 + uint64(c-'0')
		}
		v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		if got, ok := eightDigits(v); ok != digits || ok && got != want {
			t.Fatalf("eightDigits(%q) = %d, %v", b[:], got, ok)
		}
	}
}

// FuzzDecimal: any token is read as strconv.ParseFloat reads it, to the
// bit and the error, when it is a JSON number, and refused when it is not.
func FuzzDecimal(f *testing.F) {
	for _, tok := range []string{"0.95", "12.5", "9007199254740993", "1e309", "-0", "1e-27", "1e28",
		"12345678901234567890", "+1", ".5", "5.", "01", "1.e5", "-.5", "0x10", "1_0", "Inf", "1e"} {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if jsonNumber.MatchString(tok) {
			matchesStrconv(t, tok)
		} else if got, err := parseToken(tok); err == nil {
			t.Fatalf("%q is not a JSON number, read as %v", tok, got)
		}
	})
}

// shortestEdges are the floats where appendShortest's range or its digit
// loop's cases change, each with the floats beside it: the range's ends
// (and 10⁶, where 'g' turns to an exponent), the powers of two across the
// range (a narrower gap below), short decimals, and integers, whose float
// below is where a rounding carry would reach the integer part; and ties
// between two shortest decimals.
func shortestEdges() []float64 {
	xs := []float64{0x1p-6, 999_999, 1e6, 0.1, 0.3, 0.30000000000000004, 0.5, 5, 0.95, 12.5,
		0.9999999999999999, 1.0000000000000002, 2, 10, 100, 1000, 99_999}
	for e := -6; e <= 19; e++ {
		xs = append(xs, math.Ldexp(1, e))
		// Ties: 2^e + j/2^(k+1), j odd, ends in a 5 one place past the
		// first k at which the digit loop can stop (10^k > 2^s), so that
		// both k-digit neighbours may read back as x, equally near it.
		k := int(math.Ceil(float64(52-e) * math.Log10(2)))
		for j := 1; j < 20; j += 2 {
			xs = append(xs, math.Ldexp(1, e)+math.Ldexp(float64(j), -(k+1)))
		}
	}
	var out []float64
	for _, x := range xs {
		out = append(out, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	return out
}

// shortestMatches requires appendShortest to append strconv's bytes for x.
func shortestMatches(t testing.TB, x float64) {
	var got, want [32]byte
	if g, w := appendShortest(got[:0], x), strconv.AppendFloat(want[:0], x, 'g', -1, 64); string(g) != string(w) {
		t.Fatalf("appendShortest(%#x) = %s, strconv says %s", math.Float64bits(x), g, w)
	}
}

func TestAppendShortestMatchesStrconv(t *testing.T) {
	for _, x := range shortestEdges() {
		shortestMatches(t, x)
	}
	// A million pool-shaped draws — R ∈ [0.9, 0.95], payment rate·d·c(f)·R
	// with rate ∈ [1, 10], d ∈ [1, 10], c(f) ∈ {1, 2, 3} — and a million bit
	// patterns, over every float and over the fast range's exponents.
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 500_000; i++ {
		r := 0.9 + 0.05*rng.Float64()
		shortestMatches(t, r)
		shortestMatches(t, (1+9*rng.Float64())*float64((1+rng.Intn(10))*(1+rng.Intn(3)))*r)
		shortestMatches(t, math.Float64frombits(rng.Uint64()))
		shortestMatches(t, math.Float64frombits(uint64(1017+rng.Intn(26))<<52|rng.Uint64()&(1<<52-1)))
	}
}

// FuzzAppendShortest: for any float64 bit pattern, appendShortest's bytes
// are strconv's.
func FuzzAppendShortest(f *testing.F) {
	for _, x := range shortestEdges() {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		shortestMatches(t, math.Float64frombits(b))
	})
}
