(* [restart]: crash/restart cycles on edit-style stores of ~20k nodes.
   Each cycle has two halves.

   (a) A durable store with a rel-store on its document checkpoints,
   takes 30 journaled writes (the last two stay in the group-commit
   buffer), then loses its in-memory state: the store is recovered from
   the surviving simulated disk, the rel-store is rebound with
   [Label_sync.resync], and one read proves it ready.  Recovery time
   runs from [recover] to that read's answer.

   (b) A replicated session's down channel is severed, 30 writes land
   on the primary alone, then [Session.reconnect] and the time until
   [Session.quiesce] returns true measure catch-up.

   Oracles: the recovered labels equal a replay of the durable prefix
   on an independent copy of the document (paper §4.2 determinism), the
   durable sequence number covers everything synced before the crash,
   the readiness read matches Dom_eval, and after catch-up the replica's
   labels equal the primary's. *)

open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Fault = Ltree_recovery.Fault
module Durable_doc = Ltree_recovery.Durable_doc
module Session = Ltree_replication.Session
module Replica = Ltree_replication.Replica
module Channel = Ltree_replication.Channel
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Label_sync = Ltree_relstore.Label_sync
module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span

let writes_per_half ~smoke = if smoke then 6 else 30

(* Store writes, the readiness read, session writes, the catch-up. *)
let ops_per_cycle ~smoke = (2 * writes_per_half ~smoke) + 2
let dir = "store"
let read_path = Ltree_xpath.Xpath_parser.parse "//item//increase"

type phase = Store_writes of int | Restart | Session_writes of int | Catch_up

let setup (ctx : Ctx.t) =
  let store_doc = Ctx.xmark ctx ~scale:10.0 in
  let session_doc = Ctx.xmark ctx ~scale:10.0 in
  let oracle = Labeled_doc.of_document (Ctx.xmark ctx ~scale:10.0) in
  let group_commit = Session.default_config.Session.group_commit in
  let writes_per_half = writes_per_half ~smoke:ctx.Ctx.smoke in
  let t0 = Run.now () in
  let dm = Meter.create () and pm = Meter.create () and rm = Meter.create () in
  let sim, io = Meter.sim_disk dm in
  let ldoc = Labeled_doc.of_document store_doc in
  let d = ref (Durable_doc.initialize ~io ~group_commit ~dir ldoc) in
  let sim = ref sim in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = ref (Label_sync.create pager store ldoc) in
  let _, pio = Meter.sim_disk pm and _, rio = Meter.sim_disk rm in
  let s =
    Session.create ~primary_io:pio ~primary_dir:"primary" ~replica_io:rio
      ~replica_dir:"replica" (Labeled_doc.of_document session_doc)
  in
  if not (Session.quiesce s) then failwith "restart: replica did not bootstrap";
  let acct = Reads.create () in
  ignore (Reads.hot_join acct pager store ~anc:"item" ~desc:"increase" : int list);
  let setup_s = Run.now () -. t0 in
  let store_ed = Editor.create ~seed:ctx.Ctx.seed ldoc in
  let session_ed =
    Editor.create ~seed:(ctx.Ctx.seed + 1) (Durable_doc.ldoc (Session.primary s))
  in
  let meters () = Meter.sum [ dm; pm; rm ] in
  let m0 = meters () in
  let rep0 = Replica.stats (Session.replica s) in
  Reads.reset acct;
  let since_recovery = Queue.create () in
  let phase = ref (Store_writes 0) in
  let writes = ref 0 and payload = ref 0 in
  let replayed = ref 0 and recovers = ref 0 in
  let catchup_records = ref 0 and catchup_s = ref 0.0 in
  let store_write r k =
    if k = 0 then
      ignore
        (Run.maint r (fun () ->
             Span.with_ ~name:"recovery.durable_checkpoint" (fun () ->
                 Durable_doc.checkpoint !d))
          : unit * float);
    let op = Editor.next store_ed in
    (match
       Run.op r Run.Write (fun () ->
           Span.with_ ~name:"recovery.durable_apply" (fun () ->
               Durable_doc.apply !d op.Editor.entry);
           Span.with_ ~name:"relstore.sync" (fun () ->
               ignore (Label_sync.flush !sync : Label_sync.stats)))
     with
     | Some () ->
       Editor.applied store_ed op;
       incr writes;
       payload := !payload + op.Editor.payload;
       Queue.push (Durable_doc.last_seq !d, op.Editor.entry) since_recovery
     | None -> ());
    phase := if k + 1 = writes_per_half then Restart else Store_writes (k + 1)
  in
  let restart r =
    let synced = Durable_doc.last_seq !d - Durable_doc.pending !d in
    (* The process dies: only the simulated disk's contents survive. *)
    let sim', io' = Meter.sim_disk ~files:(Fault.dump !sim) dm in
    sim := sim';
    let recovered, t_recover =
      Run.maint r (fun () ->
          match
            Span.with_ ~name:"recovery.restart" (fun () ->
                Durable_doc.recover ~io:io' ~group_commit ~dir ())
          with
          | Error _ -> None
          | Ok (report, d') ->
            let sync', _ =
              Span.with_ ~name:"relstore.rebind" (fun () ->
                  Label_sync.resync !sync (Durable_doc.ldoc d'))
            in
            Some (report, d', sync'))
    in
    match recovered with
    | None -> Run.check r false "restart: no loadable snapshot"
    | Some (report, d', sync') ->
      d := d';
      sync := sync';
      let got =
        Reads.counted acct (Pager.counters pager) (fun () ->
            Run.timed_op r Run.Read (fun () ->
                Span.with_ ~name:"relstore.join" (fun () ->
                    Reads.hot_join acct pager store ~anc:"item" ~desc:"increase")))
      in
      let rdoc = Durable_doc.ldoc d' in
      (match got with
       | Some (ids, t_read) ->
         Run.sample r "recover_ms" ((t_recover +. t_read) *. 1e3);
         let ids = Run.observe r ids ~damage:Oracle.damage in
         Run.check r
           (Oracle.same_ids ids (Oracle.expected (Labeled_doc.document rdoc) read_path))
           "restart: readiness read differs from Dom_eval"
       | None -> ());
      incr recovers;
      replayed := !replayed + report.Durable_doc.entries_replayed;
      let durable = report.Durable_doc.durable_seq in
      Run.check r (durable >= synced)
        (Printf.sprintf "restart: durable_seq %d below synced seq %d" durable synced);
      Queue.iter
        (fun (seq, entry) -> if seq <= durable then Journal.apply_entry oracle entry)
        since_recovery;
      Queue.clear since_recovery;
      Run.check r
        (Oracle.same_labels (Oracle.labels rdoc) (Oracle.labels oracle))
        "restart: recovered labels differ from a replay of the durable prefix";
      Editor.rebind store_ed rdoc;
      phase := Session_writes 0
  in
  let session_write r k =
    if k = 0 then Channel.sever (Session.down s) ~now:(Session.clock s);
    let op = Editor.next session_ed in
    (* Timed as ops, but kept out of the write-latency sample: the
       sample describes one population, the store half's writes. *)
    (match
       Run.op r Run.Other (fun () ->
           Span.with_ ~name:"replication.session_apply" (fun () ->
               Session.apply s op.Editor.entry))
     with
     | Some () ->
       Editor.applied session_ed op;
       incr writes;
       payload := !payload + op.Editor.payload
     | None -> ());
    phase := if k + 1 = writes_per_half then Catch_up else Session_writes (k + 1)
  in
  let applied () =
    Option.value ~default:0 (Replica.applied_seq (Session.replica s))
  in
  let catch_up r =
    let before = applied () in
    (match
       Run.timed_op r Run.Other (fun () ->
           Span.with_ ~name:"replication.catchup" (fun () ->
               Session.reconnect s;
               Session.quiesce s))
     with
     | Some (true, dt) ->
       catchup_records := !catchup_records + applied () - before;
       catchup_s := !catchup_s +. dt;
       let primary = Durable_doc.ldoc (Session.primary s) in
       (match Replica.read ~max_lag:0 (Session.replica s) Oracle.labels with
        | Ok labels ->
          Run.check r
            (Oracle.same_labels labels (Oracle.labels primary))
            "restart: replica labels differ from the primary's after catch-up"
        | Error _ -> Run.refused r)
     | Some (false, _) -> Run.refused r
     | None -> ());
    phase := Store_writes 0
  in
  let step r =
    match !phase with
    | Store_writes k -> store_write r k
    | Restart -> restart r
    | Session_writes k -> session_write r k
    | Catch_up -> catch_up r
  in
  let finish r =
    (match Label_sync.check !sync; Labeled_doc.check (Durable_doc.ldoc !d) with
     | () -> ()
     | exception Failure msg -> Run.check r false ("restart: " ^ msg));
    Disks.values r (Meter.diff (meters ()) m0) ~writes:!writes ~payload:!payload;
    Reads.values r acct;
    Run.ratio_i r "recovery.replayed_per_recover" !replayed !recovers;
    Run.ratio r "catchup_rec_per_s" (float_of_int !catchup_records) !catchup_s;
    let rep = Replica.stats (Session.replica s) in
    Run.count r "replication.snapshots_installed"
      (rep.Replica.snapshots_installed - rep0.Replica.snapshots_installed)
  in
  {
    Ctx.setup_s;
    header =
      [ ("nodes", Dom.size (Ctx.root store_doc)); ("slots", Labeled_doc.size ldoc);
        ("writes_per_half_cycle", writes_per_half) ];
    step; finish;
    label_bits = (fun () -> Ltree_core.Ltree.bits_per_label (Labeled_doc.tree (Durable_doc.ldoc !d)));
    teardown = ignore;
  }
