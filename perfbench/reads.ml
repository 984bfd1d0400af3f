(* Read-side accounting taken from outside the relational layer: the
   pager's counters around each read, and the minor words of each call
   to the zero-allocation hot join.  All of it runs between timed
   windows except the two [Gc.minor_words] reads bracketing the hot
   call, whose own cost is calibrated away. *)

module Counters = Ltree_metrics.Counters
module Query = Ltree_relstore.Query
module Column = Ltree_core.Column

type t = {
  mutable reads : int;
  mutable comparisons : int;
  mutable page_reads : int;
  mutable hot_calls : int;
  mutable hot_minor : float;
}

let create () =
  { reads = 0; comparisons = 0; page_reads = 0; hot_calls = 0; hot_minor = 0.0 }

let reset t =
  t.reads <- 0;
  t.comparisons <- 0;
  t.page_reads <- 0;
  t.hot_calls <- 0;
  t.hot_minor <- 0.0

(* Reading [Gc.minor_words] may itself allocate; the smallest delta of
   two back-to-back reads is that cost. *)
let calibration =
  lazy
    (let best = ref infinity in
     for _ = 1 to 16 do
       let a = Gc.minor_words () in
       let b = Gc.minor_words () in
       best := Float.min !best (b -. a)
     done;
     !best)

(* [hot_join t pager store ~anc ~desc] is [Query.label_descendants_hot]
   with its minor-heap allocation recorded; returns the ids as a list
   (the plan's result column is borrowed). *)
let hot_join t pager store ~anc ~desc =
  let calib = Lazy.force calibration in
  let mw0 = Gc.minor_words () in
  let col = Query.label_descendants_hot pager store ~anc ~desc in
  let mw1 = Gc.minor_words () in
  t.hot_calls <- t.hot_calls + 1;
  t.hot_minor <- t.hot_minor +. Float.max 0.0 (mw1 -. mw0 -. calib);
  Column.to_list col

(* [counted t counters f] runs [f] (one whole read op, timed inside)
   and charges the counter movement to reads. *)
let counted t counters f =
  let c0 = Counters.copy counters in
  let v = f () in
  let d = Counters.diff counters c0 in
  t.reads <- t.reads + 1;
  t.comparisons <- t.comparisons + Counters.comparisons d;
  t.page_reads <- t.page_reads + Counters.page_reads d;
  v

(* Index maintenance between two [Query.index_stats] readings. *)
let index_values r (a : Ltree_relstore.Label_index.stats)
    (b : Ltree_relstore.Label_index.stats) ~reads =
  let open Ltree_relstore.Label_index in
  let repairs = b.repairs - a.repairs in
  Run.ratio_i r "relstore.index_repairs_per_read" repairs reads;
  Run.ratio_i r "relstore.merged_rows_per_repair" (b.merged_rows - a.merged_rows) repairs;
  Run.count r "relstore.full_rebuilds" (b.full_rebuilds - a.full_rebuilds)

let values r t =
  Run.ratio_i r "relstore.comparisons_per_read" t.comparisons t.reads;
  Run.ratio_i r "relstore.page_reads_per_read" t.page_reads t.reads;
  Run.ratio r "relstore.join_minor_words" t.hot_minor (float_of_int t.hot_calls)
