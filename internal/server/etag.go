package server

// HTTP revalidation for cached answers. The engine's pipelines are
// deterministic: the canonical answer identity (query or explore cache
// key) plus the ingest sequence fully determine the result, so an ETag
// derived from those inputs validates a client's cached copy without
// recomputing — If-None-Match on an unchanged answer is a 304 before
// the pipeline ever runs. The tags are weak (W/ prefix): /api/query
// bodies differ per request in the freshly minted session id, so two
// responses under one tag are semantically, not byte-wise, equivalent.

import (
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"

	"kdap/internal/telemetry/profile"
)

// answerETag derives the weak entity tag for a deterministic answer
// from its identifying parts (endpoint kind, warehouse, ingest
// sequence, canonical key, ...).
func answerETag(parts ...string) string {
	h := fnv.New64a()
	for i, p := range parts {
		if i > 0 {
			_, _ = h.Write([]byte{0x1f})
		}
		_, _ = h.Write([]byte(p))
	}
	return `W/"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// notModified reports whether the request's If-None-Match header
// matches etag under RFC 9110 weak comparison (ignoring W/ prefixes),
// i.e. whether the handler may answer 304 Not Modified.
func notModified(r *http.Request, etag string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	want := opaqueTag(etag)
	for _, candidate := range strings.Split(inm, ",") {
		if opaqueTag(strings.TrimSpace(candidate)) == want {
			return true
		}
	}
	return false
}

// opaqueTag strips the weakness prefix, leaving the quoted opaque tag.
func opaqueTag(tag string) string {
	return strings.TrimPrefix(strings.TrimPrefix(tag, "W/"), "w/")
}

// cacheHeaderName carries the answer-cache disposition of a response,
// echoed from the request's wide event: miss, hit, coalesced or bypass
// as the engine recorded it, or revalidated (a 304).
const cacheHeaderName = "X-KDAP-Cache"

// writeNotModified answers a revalidation hit: 304 with the matching
// tag and no body. The engine never runs, so this is where the wide
// event gets its "revalidated" outcome.
func writeNotModified(w http.ResponseWriter, p *profile.P, etag string) {
	p.SetCacheOutcome("revalidated")
	w.Header().Set("ETag", etag)
	w.Header().Set(cacheHeaderName, p.CacheOutcome())
	w.WriteHeader(http.StatusNotModified)
}
