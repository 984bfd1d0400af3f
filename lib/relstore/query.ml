module Counters = Ltree_metrics.Counters
module Span = Ltree_obs.Span
module Column = Ltree_core.Column
open Shredder

(* Comparisons per structural join, straight off the counter delta the
   join span accumulates -- the paper's query-cost metric. *)
let join_comparisons =
  Ltree_obs.Registry.histogram ~name:"query_join_comparisons"
    ~help:"Label comparisons per structural join query"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:24)
    ()

let observe_join r =
  Ltree_obs.Histogram.observe_int join_comparisons
    (Ltree_obs.Trace.delta r "comparisons")

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( > ) : int -> int -> bool = Stdlib.( > )
let ( >= ) : int -> int -> bool = Stdlib.( >= )
let max : int -> int -> int = Stdlib.max

let ids_of_tag tbl tag = Option.value ~default:[] (Hashtbl.find_opt tbl tag)

(* BFS from a set of node ids: each level is one parent-child self-join
   (probe the parent index, fetch every child row to learn its tag). *)
let edge_descendants_from (store : edge_store) seed desc =
  let result = ref [] in
  let frontier = ref seed in
  let running = ref (match seed with [] -> false | _ :: _ -> true) in
  while !running do
    let next = ref [] in
    List.iter
      (fun parent_id ->
        List.iter
          (fun rid ->
            let row = Rel_table.get store.edge_table rid in
            if String.equal row.e_tag desc then result := row.e_id :: !result;
            if not (String.equal row.e_tag "#text") then
              next := row.e_id :: !next)
          (ids_of_tag store.edge_by_parent parent_id))
      !frontier;
    frontier := !next;
    running := (match !next with [] -> false | _ :: _ -> true)
  done;
  List.sort_uniq Int.compare !result

(* Fetch the node ids of a tag's rows (one input-side scan). *)
let edge_seed (store : edge_store) tag =
  List.map
    (fun rid -> (Rel_table.get store.edge_table rid).e_id)
    (ids_of_tag store.edge_by_tag tag)

let edge_descendants (store : edge_store) ~anc ~desc =
  edge_descendants_from store (edge_seed store anc) desc

let edge_path (store : edge_store) = function
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun ids tag -> edge_descendants_from store ids tag)
      (List.sort_uniq Int.compare (edge_seed store first))
      rest

let edge_children (store : edge_store) ~parent ~child =
  let result = ref [] in
  List.iter
    (fun rid ->
      let row = Rel_table.get store.edge_table rid in
      List.iter
        (fun crid ->
          let crow = Rel_table.get store.edge_table crid in
          if String.equal crow.e_tag child then result := crow.e_id :: !result)
        (ids_of_tag store.edge_by_parent row.e_id))
    (ids_of_tag store.edge_by_tag parent);
  List.sort_uniq Int.compare !result

(* {1 The sort-on-fetch baseline}

   The pre-index query path, kept as the measured control (and as the
   boxed-list oracle the columnar differential tests drive against):
   every fetch re-sorts the tag's live rows (comparisons charged — that
   sort is exactly the work the incremental index amortizes away), and
   the stack join runs over linked lists. *)

let fetch_rows pager (store : label_store) tag =
  let counters = Pager.counters pager in
  List.map (Rel_table.get store.label_table) (ids_of_tag store.label_by_tag tag)
  |> List.filter (fun r -> not r.l_dead)
  |> List.sort (fun a b ->
         Counters.add_comparison counters 1;
         Int.compare a.l_start b.l_start)

(* The single label self-join: stack-based interval-containment merge.
   One comparison is charged per ancestor examined -- an empty ancestor
   list costs nothing (the paper's cost model counts comparisons made,
   not loop exits). *)
let structural_pairs pager ancs descs ~extra =
  let counters = Pager.counters pager in
  let out = ref [] in
  let stack = ref [] in
  let rec push_opens ancs d_start =
    match ancs with
    | [] -> []
    | (a : label_row) :: rest ->
      Counters.add_comparison counters 1;
      if a.l_start < d_start then begin
        stack := a :: List.filter (fun s -> s.l_end > a.l_start) !stack;
        push_opens rest d_start
      end
      else ancs
  in
  let rec go ancs descs =
    match descs with
    | [] -> ()
    | (d : label_row) :: drest ->
      let ancs = push_opens ancs d.l_start in
      stack := List.filter (fun s -> s.l_end > d.l_start) !stack;
      List.iter
        (fun a ->
          Counters.add_comparison counters 1;
          if d.l_end < a.l_end && extra a d then out := d :: !out)
        !stack;
      go ancs drest
  in
  go ancs descs;
  !out

let label_descendants_baseline pager store ~anc ~desc =
  let ancs = fetch_rows pager store anc in
  let descs = fetch_rows pager store desc in
  structural_pairs pager ancs descs ~extra:(fun _ _ -> true)
  |> List.map (fun (r : label_row) -> r.l_id)
  |> List.sort_uniq Int.compare

(* {1 The incremental-index fast path} *)

let tag_entry pager (store : label_store) tag =
  Label_index.entry store.label_index (Pager.counters pager)
    ~rids_of_tag:(ids_of_tag store.label_by_tag)
    ~fetch:(fun rid ->
      let row = Rel_table.get store.label_table rid in
      (row.l_start, row.l_end, row.l_dead))
    tag

(* [clean_entry] is the allocation-free entry lookup: the clean fast
   path builds nothing; only a dirty or unmaterialized tag falls back to
   the repairing [tag_entry] (whose fetch closures allocate). *)
let clean_entry pager (store : label_store) tag =
  match Label_index.clean store.label_index tag with
  | e -> e
  | exception Label_index.Dirty -> tag_entry pager store tag

(* {1 The structural-join kernel}

   One semi-join serves every label plan — serial, chunked-parallel
   ({!Ltree_exec.Par_query}) and sharded: both inputs are sorted
   [(start, end, rid)] entries, and a plan runs the kernel over a
   {e window} [lo, hi) of descendant positions — the whole range, a
   pool chunk, or a shard's snapshot.  The open ancestors form a stack
   of entry positions; XML intervals nest or are disjoint, so their
   ends decrease upward (popping stops at the first survivor) and start
   containment implies full containment (no per-pair end comparison).
   Each matched descendant is written once, ascending, with (when
   [with_anc]) its {e innermost} open ancestor — its parent, when the
   parent is an ancestor at all, which is the whole child-axis test.  When no
   ancestor is open and the next one starts further on, the descendant
   cursor leaps there by binary search (the staircase skip).  No refs,
   no closures, no arrays: the cursors live in the workspace's
   [jstate], the stack and the outputs are reused columns, and R9
   checks the whole spine allocation-free. *)

let[@ltree.hot] rec pop_closed counters (a : Label_index.entry) stack bound =
  let sp = Column.length stack in
  if
    sp > 0
    && (Counters.add_comparison counters 1;
        Column.get a.ends (Column.get stack (sp - 1)) <= bound)
  then begin
    Column.set_len stack (sp - 1);
    pop_closed counters a stack bound
  end

let[@ltree.hot] semi_join counters ~with_anc (a : Label_index.entry)
    (d : Label_index.entry) ~lo ~hi (ws : Label_index.workspace) =
  let js = ws.Label_index.w_js in
  let stack = ws.Label_index.w_stack in
  Column.clear stack;
  Column.clear ws.Label_index.w_out;
  if with_anc then Column.clear ws.Label_index.w_anc;
  js.Label_index.js_ai <- 0;
  js.Label_index.js_di <- lo;
  js.Label_index.js_done <- false;
  while (not js.Label_index.js_done) && js.Label_index.js_di < hi do
    let ds = Column.get d.starts js.Label_index.js_di in
    (* Open every ancestor that starts before this descendant. *)
    while
      js.Label_index.js_ai < a.len
      && (Counters.add_comparison counters 1;
          Column.get a.starts js.Label_index.js_ai < ds)
    do
      pop_closed counters a stack (Column.get a.starts js.Label_index.js_ai);
      Column.push stack js.Label_index.js_ai;
      js.Label_index.js_ai <- js.Label_index.js_ai + 1
    done;
    pop_closed counters a stack ds;
    let sp = Column.length stack in
    if sp > 0 then begin
      Column.push ws.Label_index.w_out js.Label_index.js_di;
      if with_anc then
        Column.push ws.Label_index.w_anc (Column.get stack (sp - 1));
      js.Label_index.js_di <- js.Label_index.js_di + 1
    end
    else if js.Label_index.js_ai >= a.len then js.Label_index.js_done <- true
    else
      js.Label_index.js_di <-
        max
          (js.Label_index.js_di + 1)
          (Column.upper_bound_sub counters d.starts ~hi
             (Column.get a.starts js.Label_index.js_ai))
  done

(* The index-nested-loop plan, the measured alternative to the merge
   (E8d), over a window [lo, hi) of {e ancestor} positions: for each
   ancestor, binary-search its start among the descendants and scan its
   interval, writing each contained descendant position to [out] — once
   per containing ancestor, so nested ancestors repeat positions.
   Cheap when the anchors are few and selective; the merge wins once
   they blanket the document. *)
let[@ltree.hot] rec inl_scan counters (d : Label_index.entry) aend i out =
  if
    i < d.len
    && (Counters.add_comparison counters 1;
        Column.get d.starts i < aend)
  then begin
    Column.push out i;
    inl_scan counters d aend (i + 1) out
  end

let[@ltree.hot] inl counters (a : Label_index.entry) (d : Label_index.entry)
    ~lo ~hi out =
  Column.clear out;
  for apos = lo to hi - 1 do
    inl_scan counters d (Column.get a.ends apos)
      (Label_index.upper_bound counters d (Column.get a.starts apos))
      out
  done

(* {1 Gathers}

   What a plan does with the kernel's matched positions: turn them into
   the next path step's entry, or into answer ids. *)

let gather_entry (d : Label_index.entry) out =
  let n = Column.length out in
  let col () = Column.create ~capacity:(max 1 n) () in
  let starts = col () and ends = col () and rids = col () in
  for i = 0 to n - 1 do
    let p = Column.get out i in
    Column.set starts i (Column.get d.starts p);
    Column.set ends i (Column.get d.ends p);
    Column.set rids i (Column.get d.rids p)
  done;
  Column.set_len starts n;
  Column.set_len ends n;
  Column.set_len rids n;
  { Label_index.starts; ends; rids; len = n; stamp = -1 }

(* The child axis: a match is a child when it sits one level below its
   innermost open ancestor.  Rewrites the kept matches of [ws] as [id]
   of their row, in place — one [row] read per match, one [alevel] read
   per distinct innermost ancestor. *)
let child_ids ~row ~level ~id ~alevel (ws : Label_index.workspace) =
  let out = ws.Label_index.w_out and anc = ws.Label_index.w_anc in
  let n = ref 0 and last = ref (-1) and above = ref 0 in
  for i = 0 to Column.length out - 1 do
    let q = Column.get anc i in
    if q <> !last then begin
      last := q;
      above := alevel q + 1
    end;
    let r = row (Column.get out i) in
    if level r = !above then begin
      Column.set out !n (id r);
      incr n
    end
  done;
  Column.set_len out !n

let[@ltree.hot] gather_rids (d : Label_index.entry) out =
  for i = 0 to Column.length out - 1 do
    Column.set out i (Column.get d.rids (Column.get out i))
  done

(* Serial entries carry row ids: rewrite matched positions of [d] as Dom
   ids in place, fetching each row once (the emit-side page reads). *)
let[@ltree.hot] fetch_ids table (d : Label_index.entry) out =
  for i = 0 to Column.length out - 1 do
    Column.set out i
      (Rel_table.get table (Column.get d.rids (Column.get out i))).l_id
  done

let sorted_ids (ws : Label_index.workspace) =
  Column.sort_dedup ws.Label_index.w_out ~mark:ws.Label_index.w_mark;
  Column.to_list ws.Label_index.w_out

(* {1 The serial plans} *)

(* The full hot plan: clean-entry lookup, the kernel over the whole
   range, the in-place id tail.  The returned column is the index
   workspace's — borrowed until the next query on the same store. *)
let label_descendants_hot pager (store : label_store) ~anc ~desc =
  let counters = Pager.counters pager in
  let a = clean_entry pager store anc in
  let d = clean_entry pager store desc in
  let ws = Label_index.workspace store.label_index in
  semi_join counters ~with_anc:false a d ~lo:0 ~hi:d.len ws;
  fetch_ids store.label_table d ws.Label_index.w_out;
  Column.sort_dedup ws.Label_index.w_out ~mark:ws.Label_index.w_mark;
  ws.Label_index.w_out

let label_descendants pager store ~anc ~desc =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.descendants" ~counters
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    ~on_close:observe_join (fun () ->
      Column.to_list (label_descendants_hot pager store ~anc ~desc))

let label_children pager store ~parent ~child =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.children" ~counters
    ~attrs:[ ("parent", parent); ("child", child) ]
    ~on_close:observe_join (fun () ->
      let a = tag_entry pager store parent in
      let d = tag_entry pager store child in
      let ws = Label_index.workspace store.label_index in
      semi_join counters ~with_anc:true a d ~lo:0 ~hi:d.len ws;
      let row (e : Label_index.entry) p =
        Rel_table.get store.label_table (Column.get e.rids p)
      in
      child_ids ~row:(row d)
        ~level:(fun r -> r.l_level)
        ~id:(fun r -> r.l_id)
        ~alevel:(fun q -> (row a q).l_level)
        ws;
      sorted_ids ws)

let label_path pager store = function
  | [] -> []
  | first :: rest ->
    let counters = Pager.counters pager in
    Span.with_ ~name:"query.path" ~counters
      ~attrs:[ ("steps", string_of_int (1 + List.length rest)) ]
      ~on_close:observe_join (fun () ->
        let ws = Label_index.workspace store.label_index in
        let step acc tag =
          let d = tag_entry pager store tag in
          semi_join counters ~with_anc:false acc d ~lo:0 ~hi:d.len ws;
          gather_entry d ws.Label_index.w_out
        in
        let final = List.fold_left step (tag_entry pager store first) rest in
        let out = ws.Label_index.w_out in
        Column.clear out;
        for i = 0 to final.len - 1 do
          Column.push out i
        done;
        fetch_ids store.label_table final out;
        sorted_ids ws)

let label_descendants_inl pager store ~anc ~desc =
  let counters = Pager.counters pager in
  Span.with_ ~name:"query.descendants_inl" ~counters
    ~attrs:[ ("anc", anc); ("desc", desc) ]
    ~on_close:observe_join (fun () ->
      let a = tag_entry pager store anc in
      let d = tag_entry pager store desc in
      let ws = Label_index.workspace store.label_index in
      inl counters a d ~lo:0 ~hi:a.len ws.Label_index.w_out;
      fetch_ids store.label_table d ws.Label_index.w_out;
      sorted_ids ws)

let index_stats (store : label_store) = Label_index.stats store.label_index
