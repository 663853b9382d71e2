package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func keyOf(s string) [32]byte { return sha256.Sum256([]byte(s)) }

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if _, err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || string(got) != "payload" {
		t.Fatalf("got %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Overwrite.
	if _, err := s.Put(k, []byte("p2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get(k)
	if string(got) != "p2" {
		t.Fatalf("after overwrite: %q", got)
	}
	if s.TotalBytes() != 2 {
		t.Fatalf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestCrossProcessVisibility(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	k := keyOf("shared")
	s1.Put(k, []byte("blob"))

	// A second store over the same directory (a fresh process) sees it
	// via its Open scan...
	s2, _ := Open(dir, 0)
	if got, ok := s2.Get(k); !ok || string(got) != "blob" {
		t.Fatalf("scan-indexed entry invisible: %q %v", got, ok)
	}
	// ...and a write that lands *after* another store's Open is still
	// served, because Get reads through to the filesystem.
	k2 := keyOf("late")
	s1.Put(k2, []byte("late-blob"))
	if got, ok := s2.Get(k2); !ok || string(got) != "late-blob" {
		t.Fatalf("late write invisible to sibling store: %q %v", got, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget for ~3 of the 100-byte blobs.
	s, _ := Open(t.TempDir(), 350)
	payload := bytes.Repeat([]byte("x"), 100)
	keys := [][32]byte{keyOf("1"), keyOf("2"), keyOf("3")}
	for _, k := range keys {
		if _, err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("missing key 1")
	}
	ev, err := s.Put(keyOf("4"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if ev != 1 {
		t.Fatalf("evicted %d entries, want 1", ev)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, k := range [][32]byte{keys[0], keys[2], keyOf("4")} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently used entry evicted")
		}
	}
}

func TestOpenSweepsTempsAndRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	s1, _ := Open(dir, 0)
	old, mid, new := keyOf("old"), keyOf("mid"), keyOf("new")
	payload := bytes.Repeat([]byte("y"), 100)
	s1.Put(old, payload)
	s1.Put(mid, payload)
	s1.Put(new, payload)
	// Age the entries so the rescan sees distinct mtimes.
	past := time.Now().Add(-2 * time.Hour)
	os.Chtimes(filepath.Join(dir, pathOf(old)), past, past)
	midT := time.Now().Add(-1 * time.Hour)
	os.Chtimes(filepath.Join(dir, pathOf(mid)), midT, midT)
	// Crashed writer leftovers.
	sub := filepath.Join(dir, "ab")
	os.MkdirAll(sub, 0o755)
	tmp := filepath.Join(sub, tmpPrefix+"crashed")
	os.WriteFile(tmp, []byte("junk"), 0o644)

	// Reopen with a budget for two entries: the oldest goes.
	s2, err := Open(dir, 250)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived Open")
	}
	if _, ok := s2.Get(old); ok {
		t.Fatal("oldest entry survived budget enforcement on Open")
	}
	if _, ok := s2.Get(mid); !ok {
		t.Fatal("mid entry lost")
	}
	if _, ok := s2.Get(new); !ok {
		t.Fatal("newest entry lost")
	}
}

func pathOf(k [32]byte) string {
	hk := hexOf(k)
	return filepath.Join(hk[:2], hk[2:])
}

func hexOf(k [32]byte) string {
	const digits = "0123456789abcdef"
	var sb strings.Builder
	for _, b := range k {
		sb.WriteByte(digits[b>>4])
		sb.WriteByte(digits[b&0xf])
	}
	return sb.String()
}

func TestDeleteAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	k := keyOf("z")
	s.Put(k, []byte("data"))
	s.Delete(k)
	if _, ok := s.Get(k); ok {
		t.Fatal("deleted entry still readable")
	}
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatalf("accounting after delete: len=%d bytes=%d", s.Len(), s.TotalBytes())
	}
	// A foreign file in the tree must not be indexed or removed.
	foreign := filepath.Join(dir, "README")
	os.WriteFile(foreign, []byte("not a blob"), 0o644)
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("foreign file indexed: len=%d", s2.Len())
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("foreign file removed")
	}
}

// TestGetResizedBlob: a Get that finds an indexed blob changed in size
// (truncated on disk here) keeps the byte total in step, so deleting
// the entry leaves no phantom bytes for the size budget to evict
// against.
func TestGetResizedBlob(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	k := keyOf("resized")
	if _, err := s.Put(k, bytes.Repeat([]byte("x"), 100)); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, pathOf(k)), 10); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(k); !ok || len(got) != 10 {
		t.Fatalf("Get = %d bytes, %v; want 10, true", len(got), ok)
	}
	if s.TotalBytes() != 10 {
		t.Fatalf("TotalBytes after Get = %d, want 10", s.TotalBytes())
	}
	s.Delete(k)
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatalf("accounting after delete: len=%d bytes=%d", s.Len(), s.TotalBytes())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open(t.TempDir(), 1<<20)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				k := keyOf(string(rune('a' + (g+i)%16)))
				s.Put(k, bytes.Repeat([]byte{byte(g)}, 64))
				s.Get(k)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
