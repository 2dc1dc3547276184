#!/usr/bin/env bash
# Regenerates every table/figure of the paper into results/.
# Usage: scripts/run_all_experiments.sh   (LOOKHD_FAST=1 for a smoke pass)
set -u
cd "$(dirname "$0")/.."
mkdir -p results
BINS="calibration table01_apps fig02_breakdown fig03_quantization \
fig04_quant_accuracy fig08_cosine_dist fig09_retraining fig12_chunk_sweep \
table02_dimensionality fig13_training_eff fig14_infer_retrain table03_gpu \
fig15_scalability fig16_resources table04_mlp ablation_update_rule \
ablation_binary_model ablation_online ext_asic_projection ext_pipeline_trace ext_width_plan ablation_quantizer_scope ext_compression_analysis"
for b in $BINS; do
  echo "== $b"
  cargo run --release -q -p lookhd-bench --bin "$b" > "results/$b.txt" 2>>results/.stderr.log \
    && echo "   ok -> results/$b.txt" \
    || echo "   FAILED (see results/$b.txt)"
done
