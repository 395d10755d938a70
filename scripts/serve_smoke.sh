#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the chc-serve service.
#
# Builds the server, starts it on a scratch port, waits for /healthz,
# checks one golden /v1/predict answer against `chc model` (the two must
# be byte-identical: both render through core.RenderResult), verifies the
# repeat request is a cache hit, and shuts the server down gracefully.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:18080
bin=$(mktemp -d)
trap 'kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -o "$bin/chc-serve" ./cmd/chc-serve
go build -o "$bin/chc" ./cmd/chc

"$bin/chc-serve" -addr "$addr" &
pid=$!

for i in $(seq 1 50); do
  if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$pid" 2>/dev/null; then echo "server died" >&2; exit 1; fi
  sleep 0.1
done
curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS "http://$addr/readyz" >/dev/null
echo "healthz/readyz ok"

req='{"config":{"name":"C4"},"workload":{"name":"fft"}}'
api_text=$(curl -fsS -X POST -d "$req" "http://$addr/v1/predict" | jq -r .text)
cli_text=$("$bin/chc" model -config C4 -workload fft)

# jq -r strips at most one trailing newline, as does $() on the CLI output.
if [ "$api_text" != "$cli_text" ]; then
  echo "FAIL: /v1/predict text diverges from chc model output" >&2
  diff <(printf '%s' "$api_text") <(printf '%s\n' "$cli_text") >&2 || true
  exit 1
fi
echo "golden predict ok (byte-identical to chc model)"

hit=$(curl -fsS -D - -o /dev/null -X POST -d "$req" "http://$addr/v1/predict" |
  tr -d '\r' | awk 'tolower($1)=="x-cache:"{print $2}')
if [ "$hit" != "hit" ]; then
  echo "FAIL: repeat request X-Cache=$hit, want hit" >&2
  exit 1
fi
echo "cache hit ok"

# Sweep golden: every predict point in the NDJSON stream must be the same
# JSON value the equivalent /v1/predict request returns (both sides pass
# through jq -c, so equal values compare byte-identical).
sweep_req='{"configs":[{"name":"C4"},{"name":"C8"}],"workloads":[{"name":"fft"},{"name":"lu"}],"budgets":[5000,8000]}'
sweep=$(curl -fsS -X POST -d "$sweep_req" "http://$addr/v1/sweep")
summary=$(printf '%s\n' "$sweep" | tail -n 1)
if [ "$(jq -r .complete <<<"$summary")" != "true" ] || [ "$(jq -r .points <<<"$summary")" != "6" ] \
   || [ "$(jq -r .errors <<<"$summary")" != "0" ]; then
  echo "FAIL: sweep summary $summary, want complete 6-point error-free grid" >&2
  exit 1
fi
idx=0
for cfg in C4 C8; do
  for wl in fft lu; do
    line=$(printf '%s\n' "$sweep" | sed -n "$((idx + 1))p")
    point=$(jq -c .response <<<"$line")
    direct=$(curl -fsS -X POST -d "{\"config\":{\"name\":\"$cfg\"},\"workload\":{\"name\":\"$wl\"}}" \
      "http://$addr/v1/predict" | jq -c .)
    if [ "$point" != "$direct" ]; then
      echo "FAIL: sweep point $cfg/$wl diverges from /v1/predict" >&2
      diff <(printf '%s' "$point") <(printf '%s' "$direct") >&2 || true
      exit 1
    fi
    idx=$((idx + 1))
  done
done
echo "sweep golden ok (NDJSON points byte-identical to /v1/predict)"

# The sweep warmed the cache: its points answer single requests as hits.
hit=$(curl -fsS -D - -o /dev/null -X POST \
  -d '{"config":{"name":"C8"},"workload":{"name":"lu"}}' "http://$addr/v1/predict" |
  tr -d '\r' | awk 'tolower($1)=="x-cache:"{print $2}')
if [ "$hit" != "hit" ]; then
  echo "FAIL: predict after sweep X-Cache=$hit, want hit" >&2
  exit 1
fi
echo "sweep warms predict cache ok"

# The chc sweep driver reproduces the paper's full Fig. 2-4 grid in one
# request (exit 2 if any point errored).
"$bin/chc" sweep -addr "http://$addr" >/dev/null
echo "chc sweep full-grid ok"

curl -fsS "http://$addr/metrics" | grep -q '"cache_hits"'
echo "metrics ok"

kill -TERM "$pid"
wait "$pid"
echo "graceful shutdown ok"
echo "serve smoke: PASS"
