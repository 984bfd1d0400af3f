(* [query]: the read path end to end on a ~49k-node XMark document —
   the n = 50000 point — far larger than the default 64-page buffer
   pool.  Reads are drawn by Zipf(1) from a fixed catalog mixing XPath
   strings (parse + label evaluation), the relational plans of
   {!Ltree_relstore.Query} (hot [a//b], [a/b], [a//b//c], index nested
   loop) and the same shapes through {!Ltree_exec.Par_query} over a
   {!Ltree_exec.Read_snapshot}.  After every 500 reads one write — an
   insert of the edit mix — goes to the durable store, followed by
   [Label_sync.flush], [Label_eval.refresh] and [Read_snapshot.refresh]. *)

open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Durable_doc = Ltree_recovery.Durable_doc
module Session = Ltree_replication.Session
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Label_sync = Ltree_relstore.Label_sync
module Query = Ltree_relstore.Query
module Label_eval = Ltree_xpath.Label_eval
module Xpath_parser = Ltree_xpath.Xpath_parser
module Pool = Ltree_exec.Pool
module Par_query = Ltree_exec.Par_query
module Read_snapshot = Ltree_exec.Read_snapshot
module Counters = Ltree_metrics.Counters
module Prng = Ltree_workload.Prng
module Zipf = Ltree_workload.Zipf
module Span = Ltree_obs.Span

let reads_per_write (ctx : Ctx.t) = if ctx.Ctx.smoke then 20 else 500

type plan =
  | Xpath of string
  | Hot of string * string
  | Children of string * string
  | Path of string list
  | Inl of string * string
  | Par_desc of string * string
  | Par_children of string * string
  | Par_path of string list
  | Par_inl of string * string

(* Zipf rank order: the first entries dominate the mix. *)
let catalog =
  [|
    Hot ("open_auction", "increase");
    Xpath "//item/name";
    Par_desc ("item", "listitem");
    Children ("item", "name");
    Xpath "/site/regions//item/location";
    Path [ "regions"; "item"; "text" ];
    Par_children ("person", "name");
    Inl ("open_auction", "personref");
    Par_path [ "people"; "person"; "city" ];
    Hot ("mailbox", "from");
    Xpath "//open_auction[bidder]/initial";
    Par_inl ("closed_auction", "price");
    Children ("bidder", "increase");
    Hot ("description", "text");
    Xpath "//person[address]/name";
    Par_desc ("regions", "increase");
  |]

(* The XPath an entry means, for the Dom_eval oracle. *)
let xpath_of = function
  | Xpath s -> s
  | Hot (a, b) | Inl (a, b) | Par_desc (a, b) | Par_inl (a, b) ->
    Printf.sprintf "//%s//%s" a b
  | Children (a, b) | Par_children (a, b) -> Printf.sprintf "//%s/%s" a b
  | Path tags | Par_path tags -> "//" ^ String.concat "//" tags

type answer = Ids of int list | Nodes of Dom.node list

let setup (ctx : Ctx.t) =
  let doc = Ctx.xmark ctx ~scale:25.0 in
  let t0 = Run.now () in
  let meter = Meter.create () in
  let _, io = Meter.sim_disk meter in
  let ldoc = Labeled_doc.of_document doc in
  let d =
    Durable_doc.initialize ~io
      ~group_commit:Session.default_config.Session.group_commit ~dir:"store"
      ldoc
  in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let engine = Label_eval.create ldoc in
  let pool = Pool.create ~size:ctx.Ctx.pool_size in
  let snap = ref (Read_snapshot.of_store pager store ldoc) in
  let acct = Reads.create () in
  let pc = Pager.counters pager in
  let run_plan = function
    | Xpath s ->
      let ast = Span.with_ ~name:"xpath.parse" (fun () -> Xpath_parser.parse s) in
      Nodes (Span.with_ ~name:"xpath.eval" (fun () -> Label_eval.eval engine ast))
    | Hot (anc, desc) ->
      Ids
        (Span.with_ ~name:"relstore.join" (fun () ->
             Reads.hot_join acct pager store ~anc ~desc))
    | Children (parent, child) ->
      Ids
        (Span.with_ ~name:"relstore.join" (fun () ->
             Query.label_children pager store ~parent ~child))
    | Path tags ->
      Ids (Span.with_ ~name:"relstore.join" (fun () -> Query.label_path pager store tags))
    | Inl (anc, desc) ->
      Ids
        (Span.with_ ~name:"relstore.join" (fun () ->
             Query.label_descendants_inl pager store ~anc ~desc))
    | Par_desc (anc, desc) ->
      Ids
        (Span.with_ ~name:"exec.par_read" (fun () ->
             Par_query.descendants ~counters:pc pool !snap ~anc ~desc))
    | Par_children (parent, child) ->
      Ids
        (Span.with_ ~name:"exec.par_read" (fun () ->
             Par_query.children ~counters:pc pool !snap ~parent ~child))
    | Par_path tags ->
      Ids
        (Span.with_ ~name:"exec.par_read" (fun () ->
             Par_query.path ~counters:pc pool !snap tags))
    | Par_inl (anc, desc) ->
      Ids
        (Span.with_ ~name:"exec.par_read" (fun () ->
             Par_query.descendants_inl ~counters:pc pool !snap ~anc ~desc))
  in
  (* Index warm-up: every catalog entry once. *)
  Array.iter (fun p -> ignore (run_plan p : answer)) catalog;
  let setup_s = Run.now () -. t0 in
  let oracle_paths = Array.map (fun p -> Xpath_parser.parse (xpath_of p)) catalog in
  let prng = Prng.create (ctx.Ctx.seed + 1) in
  let zipf = Zipf.create ~n:(Array.length catalog) ~alpha:1.0 in
  let ed = Editor.create ~seed:ctx.Ctx.seed ldoc in
  let m0 = Meter.copy meter in
  let c0 = Counters.copy (Labeled_doc.counters ldoc) in
  let ix0 = Query.index_stats store in
  let pool0 = Pool.stats pool in
  Reads.reset acct;
  let writes = ref 0 and payload = ref 0 and rows = ref 0 in
  let since_write = ref 0 in
  (* Dom_eval answers, memoized per document version. *)
  let expected = Hashtbl.create 16 and expected_version = ref (-1) in
  let oracle i =
    let v = Labeled_doc.version ldoc in
    if v <> !expected_version then begin
      Hashtbl.reset expected;
      expected_version := v
    end;
    match Hashtbl.find_opt expected i with
    | Some nodes -> nodes
    | None ->
      let nodes = Ltree_xpath.Dom_eval.eval doc oracle_paths.(i) in
      Hashtbl.replace expected i nodes;
      nodes
  in
  let read r =
    let i = Zipf.sample zipf prng in
    match
      Reads.counted acct pc (fun () ->
          Run.op r Run.Read (fun () -> run_plan catalog.(i)))
    with
    | Some (Ids ids) ->
      let ids = Run.observe r ids ~damage:Oracle.damage in
      Run.check r
        (Oracle.same_ids ids (Oracle.sorted_ids (oracle i)))
        ("query: " ^ xpath_of catalog.(i) ^ " differs from Dom_eval")
    | Some (Nodes nodes) ->
      let nodes = Run.observe r nodes ~damage:Oracle.damage_nodes in
      Run.check r
        (Oracle.same_nodes nodes (oracle i))
        ("query: " ^ xpath_of catalog.(i) ^ " differs from Dom_eval")
    | None -> ()
  in
  (* The write is timed until the store is flushed; the refreshes it
     owes the XPath engine and the snapshot follow as maintenance. *)
  let write r =
    let op = Editor.insert ed in
    match
      Run.op r Run.Write (fun () ->
          Span.with_ ~name:"recovery.durable_apply" (fun () ->
              Durable_doc.apply d op.Editor.entry);
          Span.with_ ~name:"relstore.sync" (fun () -> Label_sync.flush sync))
    with
    | Some st ->
      Editor.applied ed op;
      incr writes;
      payload := !payload + op.Editor.payload;
      rows :=
        !rows + st.Label_sync.rows_updated + st.Label_sync.rows_inserted
        + st.Label_sync.rows_tombstoned;
      ignore
        (Run.maint r (fun () ->
             Span.with_ ~name:"xpath.refresh" (fun () -> Label_eval.refresh engine);
             Span.with_ ~name:"exec.snapshot" (fun () ->
                 snap := Read_snapshot.refresh !snap))
          : unit * float)
    | None -> ()
  in
  let step r =
    if !since_write >= reads_per_write ctx then begin
      since_write := 0;
      write r
    end
    else begin
      incr since_write;
      read r
    end
  in
  let finish r =
    (match Label_sync.check sync; Labeled_doc.check ldoc with
     | () -> ()
     | exception Failure msg -> Run.check r false ("query: " ^ msg));
    let dc = Counters.diff (Labeled_doc.counters ldoc) c0 in
    Run.ratio_i r "core.relabels_per_write" (Counters.relabels dc) !writes;
    Run.ratio_i r "core.splits_per_write" (Counters.splits dc) !writes;
    Run.ratio_i r "relstore.rows_per_flush" !rows !writes;
    Reads.values r acct;
    Reads.index_values r ix0 (Query.index_stats store) ~reads:acct.Reads.reads;
    Disks.values r (Meter.diff meter m0) ~writes:!writes ~payload:!payload;
    Pools.values r pool0 (Pool.stats pool)
  in
  {
    Ctx.setup_s;
    header = [ ("nodes", Dom.size (Ctx.root doc)); ("slots", Labeled_doc.size ldoc) ];
    step; finish;
    label_bits = (fun () -> Ltree_core.Ltree.bits_per_label (Labeled_doc.tree ldoc));
    teardown = (fun () -> Pool.shutdown pool);
  }
