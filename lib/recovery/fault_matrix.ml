module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Dom = Ltree_xml.Dom
module Serializer = Ltree_xml.Serializer
module Xml_gen = Ltree_workload.Xml_gen
module Prng = Ltree_workload.Prng
module Invariant = Ltree_analysis.Invariant
module Recorder = Ltree_obs.Recorder

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( > ) : int -> int -> bool = Stdlib.( > )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( >= ) : int -> int -> bool = Stdlib.( >= )
let min : int -> int -> int = Stdlib.min

type config = {
  seed : int;
  ops : int;
  doc_nodes : int;
  group_commit : int;
  checkpoint_every : int;
}

let default_config =
  { seed = 42; ops = 200; doc_nodes = 120; group_commit = 4;
    checkpoint_every = 32 }

(* {1 Script generation}

   The workload is a list of {!Journal.entry} values generated against a
   scratch document (so every anchor is valid at its position in the
   sequence).  Everything derives from the config seed: the same config
   always yields the same script, the same write points, and the same
   injected damage — a failing cell replays exactly. *)

let base_document config =
  Xml_gen.generate ~seed:config.seed
    (Xml_gen.default_profile ~target_nodes:config.doc_nodes ())

let base_ldoc config = Labeled_doc.of_document (base_document config)

let live_nodes ldoc =
  let doc = Labeled_doc.document ldoc in
  let elements = ref [] and texts = ref [] in
  (match doc.Dom.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Element _ -> elements := n :: !elements
         | Dom.Text _ -> texts := n :: !texts
         | Dom.Comment _ | Dom.Pi _ -> ()));
  (List.rev !elements, List.rev !texts)

let start_label ldoc n = (Labeled_doc.label ldoc n).Labeled_doc.start_pos

let fragment_xml prng k =
  match Prng.int prng 3 with
  | 0 -> Printf.sprintf "<patch n=\"%d\">p%d</patch>" k k
  | 1 -> Printf.sprintf "<patch n=\"%d\"><deep><x/></deep></patch>" k
  | _ -> Printf.sprintf "<note id=\"%d\">n%d<sub/></note>" k k

let generate_script config =
  let ldoc = base_ldoc config in
  let prng = Prng.create (config.seed lxor 0x0F1E2D3C) in
  let script = ref [] in
  for k = 1 to config.ops do
    let elements, texts = live_nodes ldoc in
    let insert () =
      let parent = Prng.pick prng (Array.of_list elements) in
      Journal.Insert
        { anchor = start_label ldoc parent;
          index = Prng.int prng (Dom.child_count parent + 1);
          xml = fragment_xml prng k }
    in
    let entry =
      match Prng.int prng 10 with
      | 0 | 1 | 2 | 3 | 4 -> insert ()
      | 5 | 6 -> (
          (* Never delete the root: the document must keep one. *)
          match
            List.filter (fun n -> Option.is_some (Dom.parent n)) elements
          with
          | [] -> insert ()
          | deletable ->
            Journal.Delete
              { anchor =
                  start_label ldoc
                    (Prng.pick prng (Array.of_list deletable)) })
      | _ -> (
          match texts with
          | [] -> insert ()
          | texts ->
            (* Text stays non-empty: empty text nodes do not survive
               serialization (see Snapshot.save). *)
            Journal.Set_text
              { anchor =
                  start_label ldoc (Prng.pick prng (Array.of_list texts));
                text = Printf.sprintf "t%d" k })
    in
    Journal.apply_entry ldoc entry;
    script := entry :: !script
  done;
  List.rev !script

(* {1 The oracle}

   Labels and a content checksum after every prefix of a script,
   computed on a pristine in-memory replay.  L-Tree label determinism
   (paper §4.2) is what makes this a bit-exact oracle: recovery replays
   the same entries through the same code, so the k-op prefix must
   reproduce [labels.(k)] exactly, not merely isomorphically. *)

type oracle = { labels : int array array; crcs : int array }

let observe_labels ldoc =
  Array.of_list (List.map snd (Labeled_doc.labeled_events ldoc))

let labels_equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let doc_crc ldoc =
  Checksum.crc32 (Serializer.to_string (Labeled_doc.document ldoc))

let build_oracle ?(each = fun _ _ -> ()) ldoc entries =
  let n = List.length entries in
  let labels = Array.make (n + 1) [||] and crcs = Array.make (n + 1) 0 in
  let snap k =
    labels.(k) <- observe_labels ldoc;
    crcs.(k) <- doc_crc ldoc;
    each k ldoc
  in
  snap 0;
  List.iteri
    (fun i entry ->
      Journal.apply_entry ldoc entry;
      snap (i + 1))
    entries;
  { labels; crcs }

(* {1 Verifying a store against the oracle} *)

let register_invariants reg ~io ~dir ~expected_labels t =
  Invariant.register reg ~name:"recovery.journal-checksum-valid"
    ~depth:Invariant.Cheap (fun () ->
      let scan = Durable_doc.scan_journal io ~dir in
      match scan.Durable_doc.scan_fault with
      | Some f ->
        Invariant.fail ~name:"recovery.journal-checksum-valid"
          "journal not clean: %s"
          (Format.asprintf "%a" Durable_doc.pp_fault f)
      | None ->
        if scan.Durable_doc.dropped <> 0 then
          Invariant.fail ~name:"recovery.journal-checksum-valid"
            "%d unparsed chunks after the valid prefix"
            scan.Durable_doc.dropped);
  Invariant.register reg ~name:"recovery.snapshot-loadable"
    ~depth:Invariant.Deep (fun () ->
      match Durable_doc.newest_valid_snapshot io ~dir with
      | Error faults ->
        Invariant.fail ~name:"recovery.snapshot-loadable"
          "no loadable snapshot generation: %s"
          (String.concat "; "
             (List.map
                (fun f -> Format.asprintf "%a" Durable_doc.pp_fault f)
                faults))
      | Ok (Durable_doc.Previous, _, _, _, _) ->
        Invariant.fail ~name:"recovery.snapshot-loadable"
          "current snapshot unreadable (previous generation would load)"
      | Ok (Durable_doc.Current, _, _, _, _) -> ());
  Invariant.register reg ~name:"recovery.store-matches-oracle-prefix"
    ~depth:Invariant.Deep (fun () ->
      let got = observe_labels (Durable_doc.ldoc t) in
      let want = expected_labels () in
      if not (labels_equal got want) then
        Invariant.fail ~name:"recovery.store-matches-oracle-prefix"
          "labels diverge from oracle: %d slots vs %d expected%s"
          (Array.length got) (Array.length want)
          (let limit = min (Array.length got) (Array.length want) in
           let rec first i =
             if i >= limit then ""
             else if got.(i) <> want.(i) then
               Printf.sprintf " (first diff at slot %d: %d vs %d)" i got.(i)
                 want.(i)
             else first (i + 1)
           in
           first 0))

let verify_store ~what ~io ~dir oracle ~prefix t =
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  let seq = Durable_doc.last_seq t in
  if seq <> prefix then
    fail "%s at seq %d, expected oracle prefix %d" what seq prefix;
  if prefix < 0 || prefix >= Array.length oracle.labels then
    fail "%s prefix %d outside the script" what prefix
  else begin
    let ldoc = Durable_doc.ldoc t in
    if not (labels_equal (observe_labels ldoc) oracle.labels.(prefix)) then
      fail "%s labels differ from oracle prefix %d" what prefix;
    if doc_crc ldoc <> oracle.crcs.(prefix) then
      fail "%s content checksum differs from oracle prefix %d" what prefix;
    let reg = Invariant.create () in
    register_invariants reg ~io ~dir
      ~expected_labels:(fun () -> oracle.labels.(prefix))
      t;
    Invariant.register reg ~name:"recovery.doc-consistent"
      ~depth:Invariant.Deep (fun () -> Labeled_doc.check ldoc);
    List.iter
      (fun f ->
        fail "%s invariant %s: %s" what f.Invariant.name f.Invariant.detail)
      (Invariant.run_all ~depth:Invariant.Deep reg)
  end;
  List.rev !fails

type recovery =
  | Recovered of {
      durable_seq : int;
      attempted : int;
      synced : int;
      replayed : int;
      dropped : int;
      fault_kinds : string list;
    }
  | Unrecoverable of { fault_kinds : string list }

type bounds = { mutable attempted : int; mutable synced : int }

let recover_crashed config ~what ~dir ~sim ~crashed ~point ~init_points
    (b : bounds) ?(check = fun _ _ _ -> []) oracle =
  let io = Fault.sim_io (Fault.create_sim ~files:(Fault.dump sim) ()) in
  let not_crashed =
    if crashed then [] else [ "workload did not crash at an in-range point" ]
  in
  match Durable_doc.recover ~io ~group_commit:config.group_commit ~dir () with
  | Error faults ->
    let kinds = List.map Durable_doc.fault_kind faults in
    ( Unrecoverable { fault_kinds = kinds },
      (* Losing a whole store is only legitimate before its very first
         checkpoint ever completed. *)
      not_crashed
      @
      if b.attempted = 0 && point <= init_points then []
      else
        [ Printf.sprintf "%s unrecoverable after %d applied ops (point %d): %s"
            what b.attempted point
            (String.concat ", " kinds) ] )
  | Ok (report, t) ->
    let durable = report.Durable_doc.durable_seq in
    let bound =
      if durable < b.synced || durable > b.attempted then
        [ Printf.sprintf "%s durable seq %d outside [synced %d, attempted %d]"
            what durable b.synced b.attempted ]
      else []
    in
    let verified = verify_store ~what ~io ~dir oracle ~prefix:durable t in
    let checked =
      if durable >= 0 && durable < Array.length oracle.labels then
        check io durable t
      else []
    in
    ( Recovered
        { durable_seq = durable;
          attempted = b.attempted;
          synced = b.synced;
          replayed = report.Durable_doc.entries_replayed;
          dropped = report.Durable_doc.entries_dropped;
          fault_kinds =
            List.map Durable_doc.fault_kind report.Durable_doc.faults },
      not_crashed @ bound @ verified @ checked )

(* {1 Cell coordinates}

   One grammar for every topology: [<site prefix><unit><n>/<mode>], where
   the topology names its sites' prefixes ([""], ["primary:"], ["S1/"])
   and unit letters ([P] for write points, [C] for channel sends), plus
   a few verbatim probe names.  Failure output prints a coordinate and
   [--only] parses it back, so one red cell reruns without sweeping the
   matrix. *)

type 'site grammar = {
  sites : 'site list;
  prefix : 'site -> string;
  unit : 'site -> char;
  probes : string list;
}

type 'site id = At of 'site * int * Fault.mode | Probe of string

let cell_name g = function
  | At (site, n, mode) ->
    Printf.sprintf "%s%c%d/%s" (g.prefix site) (g.unit site) n
      (Fault.mode_name mode)
  | Probe name -> name

(* A candidate parses only if it prints back to the exact input, which
   rejects leading zeros, signs and every other non-canonical spelling. *)
let parse_cell g s =
  if List.exists (String.equal s) g.probes then Some (Probe s)
  else
    match String.rindex_opt s '/' with
    | None -> None
    | Some slash ->
      Option.bind
        (Fault.mode_of_name
           (String.sub s (slash + 1) (String.length s - slash - 1)))
        (fun mode ->
          List.find_map
            (fun site ->
              let head = Printf.sprintf "%s%c" (g.prefix site) (g.unit site) in
              let lh = String.length head in
              if lh > slash || not (String.starts_with ~prefix:head s) then None
              else
                match int_of_string_opt (String.sub s lh (slash - lh)) with
                | Some n when n >= 1 ->
                  let id = At (site, n, mode) in
                  if String.equal (cell_name g id) s then Some id else None
                | Some _ | None -> None)
            g.sites)

(* {1 The sweep} *)

type extent = { points : int; init_points : int }

type ('site, 'o) cell = {
  id : 'site id;
  name : string;
  outcome : 'o;
  failures : string list;
}

type ('site, 'o) summary = {
  config : config;
  extents : ('site * extent) list;
  only : 'site id option;
  cells : ('site, 'o) cell list;
  failed_cells : int;
}

let ok s = s.failed_cells = 0

exception Cell_out_of_range of string

let sweep ?pool ?progress ?only ?inject ~name g config extents eval =
  if config.ops < 1 then invalid_arg (name ^ ": ops must be >= 1");
  let same_site a b = String.equal (g.prefix a) (g.prefix b) in
  let descrs =
    match only with
    | Some (At (site, n, _) as id) ->
      (match List.find_opt (fun (s, _) -> same_site s site) extents with
       | Some (_, e) when n <= e.points -> ()
       | Some (_, e) ->
         raise
           (Cell_out_of_range
              (Printf.sprintf "%s: --only %s beyond the matrix (%d at that site)"
                 name (cell_name g id) e.points))
       | None ->
         raise
           (Cell_out_of_range
              (Printf.sprintf "%s: --only %s names no site" name
                 (cell_name g id))));
      [| id |]
    | Some id -> [| id |]
    | None ->
      Array.of_list
        (List.concat_map
           (fun mode ->
             List.concat_map
               (fun (site, e) ->
                 List.init e.points (fun i -> At (site, i + 1, mode)))
               extents)
           Fault.all_modes
        @ List.map (fun p -> Probe p) g.probes)
  in
  let total = Array.length descrs in
  (* Cells are independent — each builds its own fault sims, documents
     and stores — so they fan out across the pool.  The only shared
     mutable piece is this progress counter. *)
  let progress_mu = Mutex.create () in
  let done_cells = ref 0 in
  let note_progress () =
    match progress with
    | None -> ()
    | Some f ->
      Mutex.lock progress_mu;
      incr done_cells;
      let d = !done_cells in
      Fun.protect
        ~finally:(fun () -> Mutex.unlock progress_mu)
        (fun () -> f ~done_cells:d ~total)
  in
  let eval_cell id =
    let cname = cell_name g id in
    if Recorder.is_enabled () then
      Recorder.note ~kind:"cell" ~attrs:[ ("phase", "start") ] cname;
    let outcome, failures = eval id in
    (* The injection hook forces a named cell to fail so the
       bundle-on-failure path can be exercised end to end (obs-smoke);
       it must look exactly like a real verification failure. *)
    let failures =
      match inject with
      | Some inj when String.equal (cell_name g inj) cname ->
        "injected failure (--inject-cell-failure)" :: failures
      | Some _ | None -> failures
    in
    (match failures with
     | [] -> ()
     | f :: _ ->
       if Recorder.is_enabled () then
         Recorder.note ~kind:"cell"
           ~attrs:[ ("phase", "failed"); ("failure", f) ]
           cname);
    note_progress ();
    { id; name = cname; outcome; failures }
  in
  let cells =
    Array.to_list
      (match pool with
       | Some pool -> Ltree_exec.Pool.map ~chunk:1 pool eval_cell descrs
       | None -> Array.map eval_cell descrs)
  in
  { config;
    extents;
    only;
    cells;
    failed_cells =
      List.length
        (List.filter
           (fun c -> match c.failures with [] -> false | _ :: _ -> true)
           cells) }
