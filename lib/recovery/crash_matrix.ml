module FM = Fault_matrix
module Labeled_doc = Ltree_doc.Labeled_doc
module Dom = Ltree_xml.Dom
module Shredder = Ltree_relstore.Shredder
module Pager = Ltree_relstore.Pager
module Query = Ltree_relstore.Query
module Counters = Ltree_metrics.Counters

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( <> ) : int -> int -> bool = Stdlib.( <> )

let store_dir = "store"

type outcome = FM.recovery
type summary = (unit, outcome) FM.summary

let grammar =
  { FM.sites = [ () ]; prefix = (fun () -> ""); unit = (fun () -> 'P');
    probes = [] }

(* {1 Query agreement}

   A descendant query over a fresh shred of the store must return what a
   DOM walk over the same document finds — the walk knows nothing of
   labels — and, after recovery, what the pristine document at the same
   prefix returned.  Dom ids differ across document instances, so
   results are compared as sorted start-label lists: labels are the
   cross-instance identity. *)

(* The [anc//desc] pair the check asks of a document: the one with the
   most matches among ancestors below the root element, so the answer
   is not empty and the join still has to tell matches from other
   [desc] elements.  Ties break by name. *)
let nesting_tags ldoc =
  let counts = Hashtbl.create 64 in
  (match (Labeled_doc.document ldoc).Dom.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Element desc ->
           (* Each distinct ancestor tag counts once per [desc]. *)
           let rec up seen a =
             match (Dom.parent a, Dom.kind a) with
             | None, _ -> ()
             | Some p, Dom.Element t
               when not (List.exists (String.equal t) seen) ->
               let k = (t, desc) in
               Hashtbl.replace counts k
                 (1 + Option.value ~default:0 (Hashtbl.find_opt counts k));
               up (t :: seen) p
             | Some p, _ -> up seen p
           in
           Option.iter (up []) (Dom.parent n)
         | _ -> ()));
  let ranked =
    Hashtbl.fold (fun (a, d) n acc -> (n, a, d) :: acc) counts []
    |> List.sort (fun (na, aa, da) (nb, ab, db) ->
           if na <> nb then Int.compare nb na
           else
             match String.compare aa ab with
             | 0 -> String.compare da db
             | c -> c)
  in
  match ranked with
  | (_, a, d) :: _ -> (a, d)
  | [] -> ("missing", "missing")

let start ldoc n = (Labeled_doc.label ldoc n).Labeled_doc.start_pos

let has_tag tag n =
  match Dom.kind n with Dom.Element t -> String.equal t tag | _ -> false

(* [desc] elements with an [anc] element on their parent chain. *)
let dom_walk_starts ldoc ~anc ~desc =
  let rec under n =
    match Dom.parent n with None -> false | Some p -> has_tag anc p || under p
  in
  let out = ref [] in
  (match (Labeled_doc.document ldoc).Dom.root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         if has_tag desc n && under n then out := start ldoc n :: !out));
  List.sort Int.compare !out

let query_starts ldoc ~anc ~desc =
  let pager = Pager.create (Counters.create ()) in
  let store = Shredder.shred_label pager ldoc in
  let plan =
    List.filter_map
      (fun id -> Option.map (start ldoc) (Labeled_doc.node_by_id ldoc id))
      (Query.label_descendants pager store ~anc ~desc)
    |> List.sort Int.compare
  in
  if List.equal Int.equal plan (dom_walk_starts ldoc ~anc ~desc) then Some plan
  else None

let pristine_query ldoc =
  let anc, desc = nesting_tags ldoc in
  (anc, desc, query_starts ldoc ~anc ~desc)

let check_query queries _io durable t =
  let anc, desc, want = queries.(durable) in
  match (query_starts (Durable_doc.ldoc t) ~anc ~desc, want) with
  | None, _ ->
    [ Printf.sprintf "recovered store: label plan and DOM walk disagree on \
                      %s//%s" anc desc ]
  | _, None ->
    [ Printf.sprintf "pristine store: label plan and DOM walk disagree on \
                      %s//%s" anc desc ]
  | Some got, Some want ->
    if List.equal Int.equal got want then []
    else
      [ Printf.sprintf "%s//%s over recovered store: %d matches vs %d from \
                        scratch" anc desc (List.length got) (List.length want) ]

(* {1 The topology} *)

(* One workload execution against [sim]; returns the write points store
   initialization consumed. *)
let run_workload (config : FM.config) script sim (b : FM.bounds) =
  let t =
    Durable_doc.initialize ~io:(Fault.sim_io sim)
      ~group_commit:config.group_commit ~dir:store_dir (FM.base_ldoc config)
  in
  let init_points = Fault.points sim in
  List.iteri
    (fun i entry ->
      b.attempted <- i + 1;
      Durable_doc.apply t entry;
      b.synced <- Durable_doc.last_seq t - Durable_doc.pending t;
      if (i + 1) mod config.checkpoint_every = 0 then begin
        Durable_doc.checkpoint t;
        b.synced <- Durable_doc.last_seq t
      end)
    script;
  Durable_doc.sync t;
  b.synced <- Durable_doc.last_seq t;
  init_points

let eval_cell config script oracle queries ~init_points point mode =
  let plan = { Fault.crash_point = point; mode; seed = config.FM.seed } in
  let sim = Fault.create_sim ~plan () in
  let b = { FM.attempted = 0; synced = 0 } in
  let crashed =
    match run_workload config script sim b with
    | (_ : int) -> false
    | exception Fault.Crash _ -> true
  in
  FM.recover_crashed config ~what:"store" ~dir:store_dir ~sim ~crashed ~point
    ~init_points b ~check:(check_query queries) oracle

(* The oracle pass visits every prefix, so it also records the pristine
   query answer there. *)
let oracle_and_queries config script =
  let queries = Array.make (config.FM.ops + 1) ("", "", None) in
  let oracle =
    FM.build_oracle
      ~each:(fun k ldoc -> queries.(k) <- pristine_query ldoc)
      (FM.base_ldoc config) script
  in
  (oracle, queries)

let pristine_queries config =
  snd (oracle_and_queries config (FM.generate_script config))

let run ?pool ?progress ?only config =
  let script = FM.generate_script config in
  let oracle, queries = oracle_and_queries config script in
  (* Profile pass: same workload, no plan — learns the matrix width and
     how many write points initialization itself consumes. *)
  let profile_sim = Fault.create_sim () in
  let init_points =
    run_workload config script profile_sim { FM.attempted = 0; synced = 0 }
  in
  FM.sweep ?pool ?progress ?only ~name:"Crash_matrix.run" grammar config
    [ ((), { FM.points = Fault.points profile_sim; init_points }) ]
    (fun id ->
      match id with
      | FM.At ((), point, mode) ->
        eval_cell config script oracle queries ~init_points point mode
      | FM.Probe _ -> invalid_arg "Crash_matrix.run: the store has no probes")
