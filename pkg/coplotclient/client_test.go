package coplotclient

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestDoDecodesAnswers drives Client.Do against canned server answers:
// error envelopes and raw error bodies become *Error, and 2xx answers
// carry the cache metadata headers in Meta.
func TestDoDecodesAnswers(t *testing.T) {
	cases := []struct {
		name    string
		status  int
		header  map[string]string
		body    string
		want    string // 2xx body
		wantErr *Error // non-2xx answer
		hit     bool   // Meta.CacheHit
		key     string // Meta.Key
		errText string // wantErr.Error()
	}{
		{
			name:    "envelope",
			status:  http.StatusUnprocessableEntity,
			body:    `{"error":{"code":"degenerate_input","endpoint":"analyze","message":"constant dissimilarities"}}`,
			wantErr: &Error{Status: 422, Code: "degenerate_input", Endpoint: "analyze", Message: "constant dissimilarities"},
			errText: "coplotd: degenerate_input (analyze, status 422): constant dissimilarities",
		},
		{
			name:    "non-envelope 502",
			status:  http.StatusBadGateway,
			body:    "upstream unavailable\n",
			wantErr: &Error{Status: 502, Message: "upstream unavailable"},
			errText: "coplotd: status 502: upstream unavailable",
		},
		{
			name:    "envelope without code",
			status:  http.StatusBadRequest,
			body:    `{"error":{"code":"","message":"ignored"}}`,
			wantErr: &Error{Status: 400, Message: `{"error":{"code":"","message":"ignored"}}`},
		},
		{
			name:   "2xx cache hit",
			status: http.StatusOK,
			header: map[string]string{"X-Coplot-Cache": "hit", "X-Coplot-Key": "k-123"},
			body:   "report\n",
			want:   "report\n",
			hit:    true,
			key:    "k-123",
		},
		{
			name:   "2xx cache miss",
			status: http.StatusOK,
			header: map[string]string{"X-Coplot-Cache": "miss", "X-Coplot-Key": "k-456"},
			body:   "report\n",
			want:   "report\n",
			key:    "k-456",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var gotMethod, gotURI, gotType, gotBody string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				b, _ := io.ReadAll(r.Body)
				gotMethod, gotURI, gotType, gotBody = r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), string(b)
				for k, v := range tc.header {
					w.Header().Set(k, v)
				}
				w.WriteHeader(tc.status)
				io.WriteString(w, tc.body)
			}))
			defer srv.Close()

			c := New(srv.URL+"/", nil) // a trailing slash is trimmed
			body, meta, err := c.Do(context.Background(), http.MethodPost, "/v1/hurst?name=a.swf", "text/plain", []byte("log"))
			if gotMethod != http.MethodPost || gotURI != "/v1/hurst?name=a.swf" || gotType != "text/plain" || gotBody != "log" {
				t.Fatalf("request = %s %s (%s) %q", gotMethod, gotURI, gotType, gotBody)
			}
			if meta == nil || meta.Status != tc.status || meta.CacheHit != tc.hit || meta.Key != tc.key {
				t.Fatalf("meta = %+v, want status %d hit %t key %q", meta, tc.status, tc.hit, tc.key)
			}
			if tc.wantErr == nil {
				if err != nil || string(body) != tc.want {
					t.Fatalf("Do = %q, %v; want %q", body, err, tc.want)
				}
				return
			}
			var apiErr *Error
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %T %v, want *Error", err, err)
			}
			if !reflect.DeepEqual(apiErr, tc.wantErr) {
				t.Fatalf("err = %+v, want %+v", apiErr, tc.wantErr)
			}
			if body != nil {
				t.Fatalf("error answer returned body %q", body)
			}
			if tc.errText != "" && err.Error() != tc.errText {
				t.Fatalf("Error() = %q, want %q", err.Error(), tc.errText)
			}
		})
	}
}

// TestDecodeErrorMalformedEnvelope keeps a truncated JSON body as the
// message rather than failing the decode.
func TestDecodeErrorMalformedEnvelope(t *testing.T) {
	err := decodeError(http.StatusInternalServerError, []byte(` {"error":{"code": `))
	want := &Error{Status: 500, Message: `{"error":{"code":`}
	if !reflect.DeepEqual(err, want) {
		t.Fatalf("decodeError = %+v, want %+v", err, want)
	}
}
