package diskcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// answer is the value every envelope test writes: a string and an int,
// so a flipped bit can land inside either.
var answer = testVal{N: 42, S: "answer"}

// validEntry builds real on-disk entry bytes for key and val.
func validEntry(t testing.TB, key string, val any) []byte {
	t.Helper()
	data, err := encodeEnvelope(envelope{Version: envelopeVersion, Key: key, WrittenAt: time.Now().UnixNano(), Value: val})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireDroppedMiss writes data as key's entry and requires a plain
// dropped-entry miss: never a panic, never an error, never a value.
func requireDroppedMiss(t *testing.T, s *Store, key string, data []byte, what string) {
	t.Helper()
	path := filepath.Join(s.dir, fileName(key))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.GetE(key)
	if ok || err != nil {
		t.Fatalf("%s: GetE = (%v, %v, %v), want miss", what, v, ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s: damaged entry not dropped", what)
	}
}

// TestTruncatedEnvelopeAnyPrefixIsMiss walks every strict prefix of a
// valid entry — each one a possible partial write cut off by a crash —
// and requires a plain dropped-entry miss.
func TestTruncatedEnvelopeAnyPrefixIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	data := validEntry(t, "k", answer)
	for n := 0; n < len(data); n++ {
		requireDroppedMiss(t, s, "k", data[:n], "prefix "+strconv.Itoa(n))
	}
	if st := s.Stats(); st.Dropped != uint64(len(data)) {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, len(data))
	}
}

// TestEnvelopeAnyBitFlipIsMiss flips every bit of a valid entry, one at a
// time. Many of those flips still decode as well-formed gob — a bit
// inside the string or the int changes the value, not the structure — so
// only the checksum trailer can tell them apart. Each one must read as a
// dropped miss, never as a different value.
func TestEnvelopeAnyBitFlipIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	data := validEntry(t, "k", answer)
	for bit := 0; bit < len(data)*8; bit++ {
		flipped := append([]byte(nil), data...)
		flipped[bit/8] ^= 1 << (bit % 8)
		requireDroppedMiss(t, s, "k", flipped, "bit "+strconv.Itoa(bit))
	}
	if st := s.Stats(); st.Dropped != uint64(len(data)*8) {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, len(data)*8)
	}
}

// FuzzEnvelopeRead feeds arbitrary bytes — seeded with a valid entry,
// bit-flipped variants (including flips inside the stored string), and
// classic junk — through the on-disk entry path of a key whose value was
// Put first. The contract under any input: no panic, no infrastructure
// error (garbage is a miss, not a fault), a hit only ever returns the
// value that was Put, and a miss unlinks the broken file so the slot
// self-heals and the next Put round-trips.
func FuzzEnvelopeRead(f *testing.F) {
	valid := validEntry(f, "k", answer)
	f.Add(valid)
	str := bytes.Index(valid, []byte(answer.S))
	for _, pos := range []int{0, 1, len(valid) / 2, str, str + len(answer.S) - 1, len(valid) - 1} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := open(t, dir, Options{})
		if err := s.PutE("k", answer); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fileName("k"))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, ok, err := s.GetE("k")
		if err != nil {
			t.Fatalf("GetE returned an infrastructure error for decodable-or-garbage bytes: %v", err)
		}
		if ok && v != answer {
			t.Fatalf("GetE returned %#v, but the value Put was %#v", v, answer)
		}
		if !ok {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("missed entry not dropped")
			}
		}
		// Whatever the bytes were, the slot must stay serviceable.
		want := testVal{N: 7, S: "heal"}
		if err := s.PutE("k", want); err != nil {
			t.Fatalf("PutE after read: %v", err)
		}
		if v, ok, err := s.GetE("k"); !ok || err != nil || v != want {
			t.Fatalf("round trip after read = (%v, %v, %v)", v, ok, err)
		}
	})
}
