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

func TestOnceUnreachableExits1(t *testing.T) {
	// A port that was just bound and released refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
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
