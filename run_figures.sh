#!/bin/sh
# Regenerates every figure with per-figure topology budgets suited to a
# single-core box. Paper fidelity would be --paper (100 topologies).
set -x
BIN="cargo run --release -q -p haste-bench --bin"
$BIN figures -- fig04 fig05 fig06 fig07 fig08 fig09 --topologies 30
$BIN figures -- fig10 fig17 fig18 --topologies 20
$BIN figures -- fig12 fig13 fig14 --topologies 10
$BIN figures -- fig11 fig15 fig16 failures --topologies 8
$BIN headline -- --topologies 30
$BIN figures -- fig21_22 fig24_25
$BIN ablation -- --topologies 10
