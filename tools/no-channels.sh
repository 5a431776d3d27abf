#!/usr/bin/env bash
# Fails if the store library opens an OCaml channel. Store I/O goes
# through raw Unix descriptors (Journal.read_file / Journal.write_sub):
# each channel's 64 KB buffer is charged to the major GC, and a fleet
# restart opens thousands of them. Run from the root of a checkout:
#   bash tools/no-channels.sh
set -euo pipefail
if grep -nE 'open_in|open_out|in_channel|out_channel' lib/store/*.ml; then
  echo "lib/store must not use OCaml channels (see DESIGN.md, store I/O)" >&2
  exit 1
fi
