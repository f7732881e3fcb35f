// Umbrella header: the whole dovetail public API in one include.
//
//   #include "dovetail/dovetail.hpp"
//
// Pulls in the adaptive front door (dovetail::sort / sort_by_key / rank),
// the key-codec layer, every core algorithm and the engine beneath them,
// the paper-baseline sorters, the applications, the input generators and
// the supporting utilities. Each header remains individually includable
// for builds that want to trim compile time; docs/API.md documents the
// surface layer by layer.
#pragma once

// Layer 5 — serving layer: batched requests + streaming ingestion.
#include "dovetail/core/sort_service.hpp"
#include "dovetail/core/stream_sort.hpp"

// Layer 4½ — order-statistics & grouped queries (rank-pruned top_k /
// nth_element / partial_sort / percentiles, group_by over the typed
// codec API).
#include "dovetail/core/group_by.hpp"
#include "dovetail/core/order_stats.hpp"

// Layer 4 — adaptive front door + typed keys (auto_sort.hpp), over the
// wide-key refinement (wide_sort.hpp) and the single-word dispatcher
// (dispatch.hpp).
#include "dovetail/core/auto_sort.hpp"
#include "dovetail/core/dispatch.hpp"
#include "dovetail/core/input_sketch.hpp"
#include "dovetail/core/key_codec.hpp"
#include "dovetail/core/wide_sort.hpp"

// Layer 3 — core algorithms.
#include "dovetail/core/counting_sort.hpp"
#include "dovetail/core/dovetail_sort.hpp"
#include "dovetail/core/inplace_sort.hpp"
#include "dovetail/core/semisort.hpp"
#include "dovetail/core/unstable_counting_sort.hpp"

// Layer 3 — paper-baseline sorters (Tab 2 roles).
#include "dovetail/baselines/buffered_lsd_radix_sort.hpp"
#include "dovetail/baselines/lsd_radix_sort.hpp"
#include "dovetail/baselines/msd_radix_sort.hpp"
#include "dovetail/baselines/sample_sort.hpp"

// Layer 2 — the distribution engine and its instrumentation.
#include "dovetail/core/bucket_table.hpp"
#include "dovetail/core/distribute.hpp"
#include "dovetail/core/dt_merge.hpp"
#include "dovetail/core/sampling.hpp"
#include "dovetail/core/sort_options.hpp"
#include "dovetail/core/sort_stats.hpp"
#include "dovetail/core/workspace.hpp"

// Layer 1 — parallel substrate.
#include "dovetail/parallel/merge.hpp"
#include "dovetail/parallel/parallel_for.hpp"
#include "dovetail/parallel/primitives.hpp"
#include "dovetail/parallel/random.hpp"
#include "dovetail/parallel/scheduler.hpp"
#include "dovetail/parallel/sort.hpp"

// Layer 6 — applications.
#include "dovetail/apps/graph.hpp"
#include "dovetail/apps/morton.hpp"

// Generators + utilities.
#include "dovetail/generators/graphs.hpp"
#include "dovetail/generators/points.hpp"
#include "dovetail/generators/synthetic.hpp"
#include "dovetail/util/algorithms.hpp"
#include "dovetail/util/bits.hpp"
#include "dovetail/util/checkers.hpp"
#include "dovetail/util/record.hpp"
#include "dovetail/util/timer.hpp"
