(* [edit]: the write path end to end.  A ~20k-node XMark document sits
   behind a replicated {!Session} (primary and replica, library default
   configuration), with a {!Label_sync} rel-store on the primary's
   document.  Every write is [Session.apply] followed by
   [Label_sync.flush]; every 20 writes one [item//increase] read runs
   through the hot structural join.  The inserted subtrees are bidders
   carrying an [increase], so the read's answer moves with the writes. *)

open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Durable_doc = Ltree_recovery.Durable_doc
module Session = Ltree_replication.Session
module Replica = Ltree_replication.Replica
module Shipper = Ltree_replication.Shipper
module Pager = Ltree_relstore.Pager
module Shredder = Ltree_relstore.Shredder
module Label_sync = Ltree_relstore.Label_sync
module Query = Ltree_relstore.Query
module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span

let read_every = 20
let read_path = Ltree_xpath.Xpath_parser.parse "//item//increase"

(* Tracks, from outside, how many further writes are issued before the
   replica's applied sequence number covers each write. *)
module Delay = struct
  type t = { pending : (int * int) Queue.t; mutable issued : int }

  let create () = { pending = Queue.create (); issued = 0 }

  let issued t ~seq =
    t.issued <- t.issued + 1;
    Queue.push (seq, t.issued) t.pending

  let observe r t applied =
    let rec go () =
      match Queue.peek_opt t.pending with
      | Some (seq, k) when seq <= applied ->
        ignore (Queue.pop t.pending : int * int);
        Run.sample r "replica_delay" (float_of_int (t.issued - k));
        go ()
      | _ -> ()
    in
    go ()
end

let setup (ctx : Ctx.t) =
  let doc = Ctx.xmark ctx ~scale:10.0 in
  let t0 = Run.now () in
  let pm = Meter.create () and rm = Meter.create () in
  let _, pio = Meter.sim_disk pm and _, rio = Meter.sim_disk rm in
  let s =
    Session.create ~primary_io:pio ~primary_dir:"primary" ~replica_io:rio
      ~replica_dir:"replica" (Labeled_doc.of_document doc)
  in
  if not (Session.quiesce s) then failwith "edit: replica did not bootstrap";
  let ldoc = Durable_doc.ldoc (Session.primary s) in
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let sync = Label_sync.create pager store ldoc in
  let acct = Reads.create () in
  ignore (Reads.hot_join acct pager store ~anc:"item" ~desc:"increase" : int list);
  let setup_s = Run.now () -. t0 in
  let ed = Editor.create ~seed:ctx.Ctx.seed ldoc in
  let delay = Delay.create () in
  let meters () = Meter.sum [ pm; rm ] in
  let m0 = meters () in
  let c0 = Counters.copy (Labeled_doc.counters ldoc) in
  let ship0 = Shipper.stats (Session.shipper s) in
  let rep0 = Replica.stats (Session.replica s) in
  let ix0 = Query.index_stats store in
  Reads.reset acct;
  let writes = ref 0 and payload = ref 0 and rows = ref 0 in
  let observe_replica r =
    match Replica.applied_seq (Session.replica s) with
    | Some a -> Delay.observe r delay a
    | None -> ()
  in
  let write r =
    let op = Editor.next ed in
    (match
       Run.op r Run.Write (fun () ->
           Span.with_ ~name:"replication.session_apply" (fun () ->
               Session.apply s op.Editor.entry);
           Span.with_ ~name:"relstore.sync" (fun () -> Label_sync.flush sync))
     with
     | Some st ->
       Editor.applied ed op;
       incr writes;
       payload := !payload + op.Editor.payload;
       rows :=
         !rows + st.Label_sync.rows_updated + st.Label_sync.rows_inserted
         + st.Label_sync.rows_tombstoned;
       Delay.issued delay ~seq:(Durable_doc.last_seq (Session.primary s))
     | None -> ());
    observe_replica r
  in
  let read r =
    let got =
      Reads.counted acct (Pager.counters pager) (fun () ->
          Run.op r Run.Read (fun () ->
              Span.with_ ~name:"relstore.join" (fun () ->
                  Reads.hot_join acct pager store ~anc:"item" ~desc:"increase")))
    in
    observe_replica r;
    match got with
    | Some ids ->
      let ids = Run.observe r ids ~damage:Oracle.damage in
      Run.check r
        (Oracle.same_ids ids (Oracle.expected (Labeled_doc.document ldoc) read_path))
        "edit: item//increase differs from Dom_eval"
    | None -> ()
  in
  let since_read = ref 0 in
  let step r =
    if !since_read >= read_every then begin
      since_read := 0;
      read r
    end
    else begin
      incr since_read;
      write r
    end
  in
  let finish r =
    let caught_up = Session.quiesce s in
    if not caught_up then Run.refused r;
    observe_replica r;
    Run.check r caught_up "edit: replica did not catch up";
    (match Label_sync.check sync; Labeled_doc.check ldoc with
     | () -> ()
     | exception Failure msg -> Run.check r false ("edit: " ^ msg));
    (match Replica.store (Session.replica s) with
     | Some rs ->
       Run.check r
         (Oracle.same_labels (Oracle.labels ldoc)
            (Oracle.labels (Durable_doc.ldoc rs)))
         "edit: replica labels differ from the primary's"
     | None -> Run.check r false "edit: replica has no store");
    let d = Counters.diff (Labeled_doc.counters ldoc) c0 in
    Run.ratio_i r "core.relabels_per_write" (Counters.relabels d) !writes;
    Run.ratio_i r "core.splits_per_write" (Counters.splits d) !writes;
    Run.ratio_i r "relstore.rows_per_flush" !rows !writes;
    Reads.values r acct;
    Reads.index_values r ix0 (Query.index_stats store) ~reads:acct.Reads.reads;
    Disks.values r (Meter.diff (meters ()) m0) ~writes:!writes ~payload:!payload;
    let ship = Shipper.stats (Session.shipper s) in
    let rep = Replica.stats (Session.replica s) in
    Run.ratio_i r "replication.frames_per_write"
      (ship.Shipper.frames_sent - ship0.Shipper.frames_sent) !writes;
    Run.count r "replication.retries" (ship.Shipper.retries - ship0.Shipper.retries);
    Run.count r "replication.bad_frames"
      (rep.Replica.bad_frames - rep0.Replica.bad_frames
       + ship.Shipper.bad_frames - ship0.Shipper.bad_frames);
    Run.count r "replication.snapshots_installed"
      (rep.Replica.snapshots_installed - rep0.Replica.snapshots_installed)
  in
  let root = Ctx.root doc in
  {
    Ctx.setup_s;
    header = [ ("nodes", Dom.size root); ("slots", Labeled_doc.size ldoc) ];
    step; finish;
    label_bits = (fun () -> Ltree_core.Ltree.bits_per_label (Labeled_doc.tree ldoc));
    teardown = ignore;
  }
