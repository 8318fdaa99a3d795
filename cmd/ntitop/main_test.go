package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ntisim/internal/telemetry"
)

func runTop(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlagExits2(t *testing.T) {
	if code, _, _ := runTop("-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestNonPositiveEveryExits2: a zero or negative refresh period would
// poll without pause, so it is rejected before any fetch.
func TestNonPositiveEveryExits2(t *testing.T) {
	for _, every := range []string{"0", "-1s"} {
		code, stdout, stderr := runTop("-addr", closedAddr(t), "-once", "-every", every)
		if code != 2 {
			t.Errorf("-every %s: exit %d, want 2", every, code)
		}
		if !strings.Contains(stderr, "-every") || stdout != "" {
			t.Errorf("-every %s: stderr = %q, stdout = %q", every, stderr, stdout)
		}
	}
}

// closedAddr returns a port that was just bound and released, so it
// refuses connections.
func closedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func TestOnceUnreachableExits1(t *testing.T) {
	addr := closedAddr(t)
	code, _, stderr := runTop("-addr", addr, "-once")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stderr, "ntitop: ") || !strings.Contains(stderr, addr) {
		t.Errorf("stderr = %q, want an ntitop: error naming %s", stderr, addr)
	}
}

func TestOncePrintsStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(telemetry.CampaignStatus{Name: "smoke", Total: 4, Done: 3, Failed: 1})
	}))
	defer srv.Close()
	code, stdout, stderr := runTop("-addr", strings.TrimPrefix(srv.URL, "http://"), "-once")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "smoke  3/4 cells  (1 FAILED)") {
		t.Errorf("stdout lacks the progress line:\n%s", stdout)
	}
}
