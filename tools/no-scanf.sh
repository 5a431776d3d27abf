#!/usr/bin/env bash
# Fails if the library mentions Scanf. Durable bytes (journal frames,
# cache records) are decoded by strict hand-written decoders that accept
# only the writer's canonical form; Scanf is both slower and laxer.
# Run from the root of a checkout:
#   bash tools/no-scanf.sh
set -euo pipefail
if grep -rn --include='*.ml' --include='*.mli' 'Scanf' lib/; then
  echo "lib/ must not use Scanf (see DESIGN.md, the strict field codec)" >&2
  exit 1
fi
