(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( > ) : int -> int -> bool = Stdlib.( > )
let max : int -> int -> int = Stdlib.max

module Column = Ltree_core.Column
module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Label_index = Ltree_relstore.Label_index
module Query = Ltree_relstore.Query

(* Structural-join plans over a frozen {!Read_snapshot}.

   Every plan is the one kernel ({!Query.semi_join}; {!Query.inl} for
   the index-nested-loop plan) run over windows of its output-driving
   input — the descendant column (the ancestor column for INL): fixed
   pool chunks for the parallel plans, the whole range for
   {!whole_descendants}.
   A window's matches depend only on the full other-side entry, so
   windows run in isolation on zero-copy {!Column.sub} views of the
   frozen slice, each charging its own scratch [Counters] (no shared
   mutable state in workers); the caller aggregates after the barrier.
   Semi-join windows write into disjoint regions of one plan-wide
   output, compacted in window order into exactly the whole-range
   output; every plan then finishes with the same sort+dedup, so
   results are element-for-element identical for every pool size. *)

let join_comparisons =
  Ltree_obs.Registry.histogram ~name:"query_join_comparisons"
    ~help:"Label comparisons per structural join query"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:24)
    ()

let note ?counters comparisons =
  (match counters with
  | Some c -> Counters.add_comparison c comparisons
  | None -> ());
  Ltree_obs.Histogram.observe_int join_comparisons comparisons

(* Window length for an input of [len] rows: the whole range without a
   pool; with one, roughly eight chunks per participant so the tail
   rebalances, but never so small that the claim cursor becomes the
   bottleneck. *)
let window_for pool len =
  match pool with
  | None -> max 1 len
  | Some pool ->
    max 64 ((len + (8 * Pool.size pool) - 1) / (8 * Pool.size pool))

(* Run [body wi lo hi local_counters] over the aligned windows of
   [0, len) and return the comparisons charged.  [wi] is the window
   index: distinct per call because the pool claims aligned ranges. *)
let run_windows pool ~window len body =
  let comps = Array.make (max 1 ((len + window - 1) / window)) 0 in
  let run lo hi =
    let local = Counters.create () in
    body (lo / window) lo hi local;
    comps.(lo / window) <- Counters.comparisons local
  in
  (if len > 0 then
     match pool with
     | None -> run 0 len
     | Some pool -> Pool.parallel_for ~chunk:window pool ~lo:0 ~hi:len run);
  Array.fold_left ( + ) 0 comps

(* The kernel over the windows of [d]: a window's matches are at most
   its length, so each writes into its own region of one plan-wide
   output (and of the ancestor column, when [with_anc]); the regions
   are then compacted, in window order, into the whole-range output. *)
let semi_join pool ~with_anc (a : Label_index.entry) (d : Label_index.entry) =
  let n = d.Label_index.len in
  let window = window_for pool n in
  let region () =
    let c = Column.create ~capacity:n () in
    Column.set_len c n;
    c
  in
  let out = region () in
  let anc = if with_anc then region () else Column.create ~capacity:1 () in
  let plan_ws = Label_index.new_workspace ~out ~anc () in
  let found = Array.make ((n + window - 1) / window) 0 in
  let comparisons =
    run_windows pool ~window n (fun wi lo hi local ->
        let ws =
          if hi - lo = n then plan_ws
          else
            Label_index.new_workspace
              ~out:(Column.sub out lo (hi - lo))
              ~anc:(if with_anc then Column.sub anc lo (hi - lo) else anc)
              ()
        in
        Query.semi_join local ~with_anc a d ~lo ~hi ws;
        found.(wi) <- Column.length ws.Label_index.w_out)
  in
  let k = ref 0 in
  Array.iteri
    (fun wi m ->
      for i = wi * window to (wi * window) + m - 1 do
        Column.set out !k (Column.get out i);
        if with_anc then Column.set anc !k (Column.get anc i);
        incr k
      done)
    found;
  Column.set_len out !k;
  if with_anc then Column.set_len anc !k;
  (plan_ws, comparisons)

(* The INL body over the windows of [a]; a window may emit more than
   its length, so each fills its own column, concatenated in window
   order. *)
let inl pool (a : Label_index.entry) (d : Label_index.entry) =
  let n = a.Label_index.len in
  let window = window_for pool n in
  let outs = Array.make ((n + window - 1) / window) None in
  let comparisons =
    run_windows pool ~window n (fun wi lo hi local ->
        let out = Column.create ~capacity:(hi - lo) () in
        Query.inl local a d ~lo ~hi out;
        outs.(wi) <- Some out)
  in
  let out = Column.create () in
  Array.iter
    (Option.iter (fun o ->
         for i = 0 to Column.length o - 1 do
           Column.push out (Column.get o i)
         done))
    outs;
  (Label_index.new_workspace ~out (), comparisons)

(* Snapshot entries carry Dom ids in [rids]: the id gather needs no row
   fetch. *)
let ids (d : Label_index.entry) (ws : Label_index.workspace) =
  Query.gather_rids d ws.Label_index.w_out;
  Query.sorted_ids ws

let entry snap tag = Read_snapshot.entry_of_slice (Read_snapshot.slice snap tag)

(* [anc//desc] over [snap], windowed by [pool]'s chunks (the whole
   range without one). *)
let join_descendants pool snap ~anc ~desc =
  let a = entry snap anc and d = entry snap desc in
  if a.Label_index.len = 0 || d.Label_index.len = 0 then ([], 0)
  else
    let ws, comparisons = semi_join pool ~with_anc:false a d in
    (ids d ws, comparisons)

let whole_descendants snap ~anc ~desc = join_descendants None snap ~anc ~desc

let run ?counters snap ~name ~attrs body =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name ~attrs (fun () ->
      let ids, comparisons = body () in
      note ?counters comparisons;
      ids)

let descendants ?counters pool snap ~anc ~desc =
  run ?counters snap ~name:"par_query.descendants"
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    (fun () -> join_descendants (Some pool) snap ~anc ~desc)

let children ?counters pool snap ~parent ~child =
  run ?counters snap ~name:"par_query.children"
    ~attrs:[ ("parent", parent); ("child", child) ]
    (fun () ->
      let pa = Read_snapshot.slice snap parent
      and ch = Read_snapshot.slice snap child in
      let a = Read_snapshot.entry_of_slice pa
      and d = Read_snapshot.entry_of_slice ch in
      if a.Label_index.len = 0 || d.Label_index.len = 0 then ([], 0)
      else begin
        let ws, comparisons = semi_join (Some pool) ~with_anc:true a d in
        Query.child_ids ~row:Fun.id
          ~level:(Column.get ch.Read_snapshot.s_levels)
          ~id:(Column.get ch.Read_snapshot.s_ids)
          ~alevel:(Column.get pa.Read_snapshot.s_levels)
          ws;
        (Query.sorted_ids ws, comparisons)
      end)

let descendants_inl ?counters pool snap ~anc ~desc =
  run ?counters snap ~name:"par_query.descendants_inl"
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    (fun () ->
      let a = entry snap anc and d = entry snap desc in
      if a.Label_index.len = 0 || d.Label_index.len = 0 then ([], 0)
      else
        let ws, comparisons = inl (Some pool) a d in
        (ids d ws, comparisons))

let path ?counters pool snap tags =
  run ?counters snap ~name:"par_query.path"
    ~attrs:[ ("steps", string_of_int (List.length tags)) ]
    (fun () ->
      match tags with
      | [] -> ([], 0)
      | first :: rest ->
        let comparisons = ref 0 in
        let step (acc : Label_index.entry) tag =
          if acc.len = 0 then acc
          else begin
            let d = entry snap tag in
            let ws, c = semi_join (Some pool) ~with_anc:false acc d in
            comparisons := !comparisons + c;
            Query.gather_entry d ws.Label_index.w_out
          end
        in
        let final = List.fold_left step (entry snap first) rest in
        ( List.sort Int.compare
            (List.init final.Label_index.len
               (Column.get final.Label_index.rids)),
          !comparisons ))

(* Batched execution: one task per query, each the whole-range plan in
   its worker — the shape benchmarked by BENCH_parallel.json. *)
let descendants_batch ?counters pool snap queries =
  Read_snapshot.ensure_fresh snap;
  Span.with_ ~name:"par_query.descendants_batch"
    ~attrs:[ ("queries", string_of_int (Array.length queries)) ] (fun () ->
      let results =
        Pool.map ~chunk:1 pool
          (fun (anc, desc) -> whole_descendants snap ~anc ~desc)
          queries
      in
      note ?counters (Array.fold_left (fun n (_, c) -> n + c) 0 results);
      Array.map fst results)
