package cluster_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"molq/client"
	"molq/internal/cluster"
	"molq/internal/httpapi"
)

// TestRouterRequestIDSanitized checks the router applies the node's
// request-ID allowlist: an ID with a newline or a quote is replaced by a
// fresh, valid one instead of being echoed into headers and logs, while a
// well-formed ID passes through.
func TestRouterRequestIDSanitized(t *testing.T) {
	router := cluster.NewRouter()
	for _, id := range []string{"bad\nid", `bad"id`, "ok-id_1.2:3"} {
		req := httptest.NewRequest(http.MethodGet, "/cluster/v1/nodes", nil)
		req.Header[httpapi.RequestIDHeader] = []string{id}
		rec := httptest.NewRecorder()
		router.ServeHTTP(rec, req)
		got := rec.Header().Get(httpapi.RequestIDHeader)
		if !httpapi.ValidRequestID(got) {
			t.Fatalf("id %q: router echoed invalid request ID %q", id, got)
		}
		if want := httpapi.ValidRequestID(id); (got == id) != want {
			t.Fatalf("id %q: echoed %q, honored=%t, want honored=%t", id, got, got == id, want)
		}
	}
}

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRouterBodyCap checks the router caps request bodies like a node does:
// an otherwise valid engine query padded to MaxBodyBytes+1 bytes is refused
// with the standard 400 envelope instead of being read whole.
func TestRouterBodyCap(t *testing.T) {
	router, rsrv, _ := startCluster(t, 1,
		[]cluster.RouterOption{cluster.WithShards(1), cluster.WithHeartbeatTimeout(2 * time.Second)})
	if _, err := client.New(rsrv.URL).CreateEngine(context.Background(), engineReq("capped", 6)); err != nil {
		t.Fatalf("engine create: %v", err)
	}
	query := `{"type_weights":[1,1,1]}`
	body := io.MultiReader(strings.NewReader(query), io.LimitReader(spaces{}, httpapi.MaxBodyBytes+1-int64(len(query))))
	req := httptest.NewRequest(http.MethodPost, "/v1/engines/capped/query", body)
	rec := httptest.NewRecorder()
	router.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", rec.Code)
	}
	var env struct {
		Error httpapi.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" {
		t.Fatalf("oversized body: not an error envelope: %q (%v)", rec.Body.String(), err)
	}
}
