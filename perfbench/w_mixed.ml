(* [mixed]: a ~10k-node XMark document split into K = 4 subtree shards
   ({!Ltree_shard.Sharded_doc}) on the execution pool.  Writes (the
   edit mix, addressed by router labels) and fan-out reads
   (descendants, children, path) on the tags those writes touch
   alternate strictly, so every read pays per-shard index repair and
   snapshot refresh.  Every 32 writes: [Sharded_doc.checkpoint], then
   [maybe_rebalance].  Reads are checked against Dom_eval over the
   router document. *)

open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Sharded_doc = Ltree_shard.Sharded_doc
module Fault = Ltree_recovery.Fault
module Pool = Ltree_exec.Pool
module Counters = Ltree_metrics.Counters
module Prng = Ltree_workload.Prng
module Span = Ltree_obs.Span

let shards = 4
let checkpoint_every = 32

type plan =
  | Desc of string * string
  | Children of string * string
  | Path of string list

let catalog =
  [|
    Desc ("item", "increase");
    Desc ("item", "bidder");
    Children ("bidder", "increase");
    Children ("item", "bidder");
    Path [ "regions"; "item"; "increase" ];
    Path [ "item"; "bidder"; "date" ];
  |]

let xpath_of = function
  | Desc (a, b) -> Printf.sprintf "//%s//%s" a b
  | Children (a, b) -> Printf.sprintf "//%s/%s" a b
  | Path tags -> "//" ^ String.concat "//" tags

let setup (ctx : Ctx.t) =
  let doc = Ctx.xmark ctx ~scale:5.0 in
  let nodes = Dom.size (Ctx.root doc) in
  let t0 = Run.now () in
  let pool = Pool.create ~size:ctx.Ctx.pool_size in
  let sd = Sharded_doc.create ~shards doc in
  let run_plan = function
    | Desc (anc, desc) -> Sharded_doc.descendants sd pool ~anc ~desc
    | Children (parent, child) -> Sharded_doc.children sd pool ~parent ~child
    | Path tags -> Sharded_doc.path sd pool tags
  in
  Array.iter (fun p -> ignore (run_plan p : int list)) catalog;
  let setup_s = Run.now () -. t0 in
  let router = Sharded_doc.router sd in
  let oracle_paths =
    Array.map (fun p -> Ltree_xpath.Xpath_parser.parse (xpath_of p)) catalog
  in
  let prng = Prng.create (ctx.Ctx.seed + 1) in
  let ed = Editor.create ~seed:ctx.Ctx.seed router in
  let all_counters () =
    Labeled_doc.counters router
    :: List.init (Sharded_doc.nshards sd) (fun p ->
           Labeled_doc.counters (Sharded_doc.shard_ldoc sd p))
  in
  let relabels () =
    List.fold_left (fun a c -> a + Counters.relabels c) 0 (all_counters ())
  in
  let splits () =
    List.fold_left (fun a c -> a + Counters.splits c) 0 (all_counters ())
  in
  let points () =
    List.fold_left ( + ) 0
      (List.init (Sharded_doc.nshards sd) (fun p -> Fault.points (Sharded_doc.shard_sim sd p)))
  in
  let pool0 = Pool.stats pool in
  let rebalances0 = Sharded_doc.rebalances sd in
  let writes = ref 0 and reads = ref 0 and routed = ref 0 in
  let relabel_n = ref 0 and split_n = ref 0 and point_n = ref 0 in
  let next_is_read = ref false in
  let write r =
    let op = Editor.next ed in
    let rl = relabels () and sp = splits () and pt = points () in
    (match
       Run.op r Run.Write (fun () ->
           Span.with_ ~name:"shard.apply" (fun () -> Sharded_doc.apply sd op.Editor.entry))
     with
     | Some () ->
       Editor.applied ed op;
       incr writes;
       relabel_n := !relabel_n + relabels () - rl;
       split_n := !split_n + splits () - sp;
       point_n := !point_n + points () - pt
     | None -> ());
    if !writes > 0 && !writes mod checkpoint_every = 0 then begin
      let pt = points () in
      ignore
        (Run.maint r (fun () ->
             Span.with_ ~name:"shard.checkpoint" (fun () -> Sharded_doc.checkpoint sd))
          : unit * float);
      point_n := !point_n + points () - pt;
      ignore
        (Run.maint r (fun () ->
             Span.with_ ~name:"shard.rebalance" (fun () ->
                 ignore (Sharded_doc.maybe_rebalance sd : bool)))
          : unit * float)
    end
  in
  let read r =
    let i = Prng.int prng (Array.length catalog) in
    match
      Run.op r Run.Read (fun () ->
          Span.with_ ~name:"shard.read" (fun () -> run_plan catalog.(i)))
    with
    | Some ids ->
      incr reads;
      routed := !routed + List.length (Sharded_doc.routed sd);
      let ids = Run.observe r ids ~damage:Oracle.damage in
      Run.check r
        (Oracle.same_ids ids
           (Oracle.expected (Labeled_doc.document router) oracle_paths.(i)))
        ("mixed: " ^ xpath_of catalog.(i) ^ " differs from Dom_eval")
    | None -> ()
  in
  let step r =
    if !next_is_read then read r else write r;
    next_is_read := not !next_is_read
  in
  let finish r =
    (match Labeled_doc.check router with
     | () -> ()
     | exception Failure msg -> Run.check r false ("mixed: " ^ msg));
    Run.ratio_i r "core.relabels_per_write" !relabel_n !writes;
    Run.ratio_i r "core.splits_per_write" !split_n !writes;
    Run.ratio_i r "recovery.write_points_per_write" !point_n !writes;
    Run.ratio_i r "shard.shards_per_read" !routed !reads;
    Run.count r "shard.rebalances" (Sharded_doc.rebalances sd - rebalances0);
    Pools.values r pool0 (Pool.stats pool)
  in
  {
    Ctx.setup_s;
    header = [ ("nodes", nodes); ("slots", Labeled_doc.size router); ("shards", shards) ];
    step; finish;
    label_bits = (fun () -> Ltree_core.Ltree.bits_per_label (Labeled_doc.tree router));
    teardown = (fun () -> Pool.shutdown pool);
  }
