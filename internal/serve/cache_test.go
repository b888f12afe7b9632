package serve

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestPlanCacheHerdStats pins the single-flight accounting: a cold-start
// herd of N requests runs one build, and the stats must say so — one miss
// (the builder), N-1 hits (coalesced waiters and lookups that find the
// entry) — instead of the N misses the old code reported exactly when
// the cache was working hardest.
func TestPlanCacheHerdStats(t *testing.T) {
	c := newPlanCache(8)
	var builds int32
	want := &engine.Prepared{}
	build := func() (*engine.Prepared, error) {
		atomic.AddInt32(&builds, 1)
		time.Sleep(20 * time.Millisecond) // widen the herd window
		return want, nil
	}
	const herd = 16
	var wg sync.WaitGroup
	var builders int32 // callers do() reported as having run the build
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The serve front end's lookup protocol: do alone.
			prep, built, err := c.do("k", build)
			if err != nil || prep != want {
				t.Errorf("do = %v, %v", prep, err)
			}
			if built {
				atomic.AddInt32(&builders, 1)
			}
		}()
	}
	wg.Wait()
	if n := atomic.LoadInt32(&builds); n != 1 {
		t.Fatalf("herd of %d ran %d builds, want 1", herd, n)
	}
	if n := atomic.LoadInt32(&builders); n != 1 {
		t.Fatalf("do reported %d builders, want 1 (the response cache label depends on it)", n)
	}
	st := c.stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (only the builder misses)", st.Misses)
	}
	if st.Hits != herd-1 {
		t.Fatalf("hits = %d, want %d (every coalesced request is a hit)", st.Hits, herd-1)
	}
}

// normalizeSQLReference is an independent model of the cache-key contract:
// outside single-quoted literals, runs of whitespace collapse to one space
// and leading/trailing whitespace drops; a literal's bytes (with ” kept
// verbatim) are data. The property tests hold normalizeSQL to it.
func normalizeSQLReference(sql string) string {
	var out []byte
	i := 0
	flushSpace := false
	for i < len(sql) {
		c := sql[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			flushSpace = true
			i++
			continue
		}
		if flushSpace && len(out) > 0 {
			out = append(out, ' ')
		}
		flushSpace = false
		if c != '\'' {
			out = append(out, c)
			i++
			continue
		}
		// Literal: copy verbatim through the closing quote ('' included).
		out = append(out, c)
		i++
		for i < len(sql) {
			out = append(out, sql[i])
			if sql[i] == '\'' {
				if i+1 < len(sql) && sql[i+1] == '\'' {
					out = append(out, '\'')
					i += 2
					continue
				}
				i++
				break
			}
			i++
		}
	}
	return string(out)
}

// checkNormalizeSQL asserts the normalization invariants for one input.
func checkNormalizeSQL(t *testing.T, in string) {
	t.Helper()
	got := normalizeSQL(in)
	if want := normalizeSQLReference(in); got != want {
		t.Fatalf("normalizeSQL(%q) = %q, want %q", in, got, want)
	}
	// Idempotence: a key normalizes to itself.
	if again := normalizeSQL(got); again != got {
		t.Fatalf("not idempotent: %q -> %q -> %q", in, got, again)
	}
	// Non-whitespace bytes survive in order (normalization only ever edits
	// whitespace, so it can never alias queries that differ elsewhere).
	strip := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch r {
			case ' ', '\t', '\n', '\r':
				return -1
			}
			return r
		}, s)
	}
	if strip(got) != strip(in) {
		t.Fatalf("non-whitespace content changed: %q -> %q", in, got)
	}
}

// TestNormalizeSQLProperties drives the edge cases the cache key must never
// get wrong — unterminated literals, doubled quotes at EOF, whitespace
// inside vs. outside literals — plus a randomized sweep over strings built
// from quote-and-whitespace-heavy fragments.
func TestNormalizeSQLProperties(t *testing.T) {
	for _, in := range []string{
		"",
		"   ",
		"'",
		"''",
		"'''",
		"''''",
		"'a''",
		"'a''b'",
		"'unterminated  literal",
		"x = '' AND y = ''",
		"a  'l  i  t'  b",
		"'  leading literal' x",
		"tab\tand\nnewline\rand space",
		"quote at end '",
		"doubled at eof ''",
		"a='x' AND b='y  z'",
	} {
		checkNormalizeSQL(t, in)
	}

	frags := []string{"'", "''", " ", "  ", "\t", "\n", "a", "b c", "=", "1", "'x y'", "''''"}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := r.Intn(12); n > 0; n-- {
			sb.WriteString(frags[r.Intn(len(frags))])
		}
		checkNormalizeSQL(t, sb.String())
	}

	// Two queries differing only inside a literal must keep distinct keys.
	if normalizeSQL("a = 'x  y'") == normalizeSQL("a = 'x y'") {
		t.Fatal("literal-internal whitespace aliased two distinct queries")
	}
}

// FuzzNormalizeSQL fuzzes the same invariants: model equivalence,
// idempotence, and preservation of non-whitespace bytes.
func FuzzNormalizeSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT  COUNT(*) FROM r",
		"a = 'x  y' AND b = 'it''s'",
		"'unterminated",
		"''",
		"' '",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got := normalizeSQL(in)
		if want := normalizeSQLReference(in); got != want {
			t.Fatalf("normalizeSQL(%q) = %q, want %q", in, got, want)
		}
		if again := normalizeSQL(got); again != got {
			t.Fatalf("not idempotent: %q -> %q -> %q", in, got, again)
		}
	})
}
