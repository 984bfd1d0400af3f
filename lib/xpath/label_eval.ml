open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc

(* Monomorphic comparison prelude (lint rule R2). *)
let ( = ) : int -> int -> bool = Stdlib.( = )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( > ) : int -> int -> bool = Stdlib.( > )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( >= ) : int -> int -> bool = Stdlib.( >= )
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let max : int -> int -> int = Stdlib.max

type item = { node : Dom.node; start_pos : int; end_pos : int; level : int }

(* One node test's nodes, plus their items sorted by start label, valid
   while [stamp] matches the document's {!Labeled_doc.version}: any label
   mutation bumps the version and every entry lapses at once, so queries
   between updates sort each tag at most once instead of on every step. *)
type entry = {
  mutable nodes : Dom.node list; (* reverse document order at build *)
  mutable sorted : item array;
  mutable stamp : int;
}

type t = {
  ldoc : Labeled_doc.t;
  mutable by_name : (string, entry) Hashtbl.t;
  mutable elements : entry;
  mutable texts : entry;
}

let entry nodes = { nodes; sorted = [||]; stamp = -1 }

let build_index t =
  let by_name = Hashtbl.create 64 in
  let elements = ref [] and texts = ref [] in
  (match (Labeled_doc.document t.ldoc).root with
   | None -> ()
   | Some root ->
     Dom.iter_preorder root (fun n ->
         match Dom.kind n with
         | Dom.Element name ->
           elements := n :: !elements;
           (match Hashtbl.find by_name name with
            | e -> e.nodes <- n :: e.nodes
            | exception Not_found -> Hashtbl.replace by_name name (entry [ n ]))
         | Dom.Text _ -> texts := n :: !texts
         | Dom.Comment _ | Dom.Pi _ -> ()));
  t.by_name <- by_name;
  t.elements <- entry !elements;
  t.texts <- entry !texts

let create ldoc =
  let t =
    { ldoc; by_name = Hashtbl.create 1; elements = entry []; texts = entry [] }
  in
  build_index t;
  t

let refresh = build_index

let item_of t node =
  if Labeled_doc.mem t.ldoc node then begin
    let l = Labeled_doc.label t.ldoc node in
    Some
      { node;
        start_pos = l.Labeled_doc.start_pos;
        end_pos = l.Labeled_doc.end_pos;
        level = l.Labeled_doc.level }
  end
  else None

(* Fresh labels for the entry's nodes, deleted nodes dropped, sorted by
   start label (document order). *)
let fresh t e =
  let v = Labeled_doc.version t.ldoc in
  if e.stamp <> v then begin
    let arr = Array.of_list (List.filter_map (item_of t) e.nodes) in
    Array.sort (fun a b -> Int.compare a.start_pos b.start_pos) arr;
    e.sorted <- arr;
    e.stamp <- v
  end;
  e.sorted

(* The test's sorted candidates.  The lookup hashes the tag name itself,
   so a cached step allocates nothing here. *)
let sorted_items t (test : Ast.test) =
  match test with
  | Ast.Name n -> (
      match Hashtbl.find t.by_name n with
      | e -> fresh t e
      | exception Not_found -> [||])
  | Ast.Wildcard -> fresh t t.elements
  | Ast.Text_node -> fresh t t.texts

let candidates t test = Array.to_list (sorted_items t test)

let matches_test (test : Ast.test) node =
  match (test, Dom.kind node) with
  | Ast.Name n, Dom.Element name -> String.equal n name
  | Ast.Wildcard, Dom.Element _ -> true
  | Ast.Text_node, Dom.Text _ -> true
  | (Ast.Name _ | Ast.Wildcard | Ast.Text_node), _ -> false

(* First position in [arr] with [start_pos > key] (binary search). *)
let upper_bound (arr : item array) key =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).start_pos <= key then lo := mid + 1 else hi := mid
  done;
  !lo

(* The positions [lo, hi) of [d] that can lie inside some context of
   [ctx]: after the first context's start, before the farthest end. *)
let window ctx d =
  if Array.length ctx = 0 then (0, 0)
  else
    let far = Array.fold_left (fun m c -> max m c.end_pos) min_int ctx in
    (upper_bound d ctx.(0).start_pos, upper_bound d far)

(* The semi-join kernel.  [ctx] and [d] are sorted by start label and
   duplicate-free; XML intervals either nest or are disjoint, so the
   contexts open at a candidate's start form a chain, kept as a stack
   threaded through [up] ([up.(i)] is context [i]'s innermost enclosing
   context, or -1).  One pass over both inputs, leaping the candidate
   cursor by binary search whenever the stack runs empty, calls
   [hit top x] once per candidate [x] of [d.(lo..hi-1)] inside an open
   context, in document order; [top] is the innermost such context.  On
   the child axis [x] must also sit one level below [top] — its parent,
   if a context, is its innermost open one. *)
let walk ~child (ctx : item array) (d : item array) ~lo ~hi up hit =
  let clen = Array.length ctx in
  let top = ref (-1) and ci = ref 0 and di = ref lo in
  while !di < hi do
    let x = d.(!di) in
    while !ci < clen && ctx.(!ci).start_pos < x.start_pos do
      let s = ctx.(!ci).start_pos in
      while !top >= 0 && ctx.(!top).end_pos < s do
        top := up.(!top)
      done;
      up.(!ci) <- !top;
      top := !ci;
      incr ci
    done;
    while !top >= 0 && ctx.(!top).end_pos < x.start_pos do
      top := up.(!top)
    done;
    if !top >= 0 then begin
      if (not child) || ctx.(!top).level + 1 = x.level then hit !top x;
      incr di
    end
    else if !ci >= clen then di := hi
    else di := max (!di + 1) (upper_bound d ctx.(!ci).start_pos)
  done

(* The step output: every candidate below (child: directly below) some
   context, once, in document order. *)
let semi_join ~child ctx d =
  let lo, hi = window ctx d in
  if hi <= lo then [||]
  else begin
    let out = Array.make (hi - lo) d.(lo) and n = ref 0 in
    walk ~child ctx d ~lo ~hi
      (Array.make (Array.length ctx) (-1))
      (fun _ x ->
        out.(!n) <- x;
        incr n);
    if !n = hi - lo then out else Array.sub out 0 !n
  end

(* The same pass from the ancestor side: which contexts hold some
   candidate below (child: directly below) them.  A hit marks the
   innermost open context; on the descendant axis the marks then flow
   outwards along [up], innermost contexts first. *)
let contains ~child ctx d =
  let clen = Array.length ctx in
  let found = Array.make clen false and up = Array.make clen (-1) in
  let lo, hi = window ctx d in
  walk ~child ctx d ~lo ~hi up (fun top _ -> found.(top) <- true);
  if not child then
    for i = clen - 1 downto 0 do
      if found.(i) && up.(i) >= 0 then found.(up.(i)) <- true
    done;
  found

(* Per-context candidate selection for the non-join axes.  Order-based
   axes (following/preceding and the sibling axes) read only label
   comparisons; the upward axes read the DOM's parent pointers and the
   labels for ordering, mirroring how an RDBMS would combine a parent-id
   column with the label index.  Groups are in proximity order (reverse
   axes nearest-first) for positional predicates. *)
let axis_group t (step : Ast.step) cands (c : item) : item list =
  match step.axis with
  | Ast.Child | Ast.Descendant -> assert false (* handled by the join *)
  | Ast.Self -> if matches_test step.test c.node then [ c ] else []
  | Ast.Parent ->
    (match Dom.parent c.node with
     | Some p when matches_test step.test p ->
       Option.to_list (item_of t p)
     | Some _ | None -> [])
  | Ast.Ancestor | Ast.Ancestor_or_self ->
    let rec up acc n =
      match Dom.parent n with
      | None -> List.rev acc (* built nearest-first, keep proximity *)
      | Some p ->
        let acc =
          if matches_test step.test p then
            match item_of t p with Some it -> it :: acc | None -> acc
          else acc
        in
        up acc p
    in
    let self =
      match step.axis with
      | Ast.Ancestor_or_self when matches_test step.test c.node -> [ c ]
      | _ -> []
    in
    self @ up [] c.node
  | Ast.Following ->
    (* Pure label comparison: start after the context's end tag. *)
    List.filter (fun d -> d.start_pos > c.end_pos) cands
  | Ast.Preceding ->
    (* End before the context's begin tag — ancestors are excluded
       automatically (their end is after).  Proximity = reverse order. *)
    List.rev (List.filter (fun d -> d.end_pos < c.start_pos) cands)
  | Ast.Following_sibling ->
    (match Dom.parent c.node with
     | None -> []
     | Some p ->
       (match item_of t p with
        | None -> []
        | Some pi ->
          List.filter
            (fun d ->
              d.level = c.level
              && d.start_pos > c.end_pos
              && d.end_pos < pi.end_pos)
            cands))
  | Ast.Preceding_sibling ->
    (match Dom.parent c.node with
     | None -> []
     | Some p ->
       (match item_of t p with
        | None -> []
        | Some pi ->
          List.rev
            (List.filter
               (fun d ->
                 d.level = c.level
                 && d.end_pos < c.start_pos
                 && d.start_pos > pi.start_pos)
               cands)))

let dedup_sorted groups =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  List.iter
    (fun group ->
      List.iter
        (fun it ->
          let k = Dom.id it.node in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            out := it :: !out
          end)
        group)
    groups;
  List.sort (fun a b -> Int.compare a.start_pos b.start_pos) !out

(* The items [keep] selects, in order; [items] itself when it keeps
   them all. *)
let select keep (items : item array) =
  let k = ref 0 in
  Array.iteri (fun i it -> if keep i it then incr k) items;
  if !k = Array.length items then items
  else begin
    let out = Array.make !k items.(0) and n = ref 0 in
    Array.iteri
      (fun i it ->
        if keep i it then begin
          out.(!n) <- it;
          incr n
        end)
      items;
    out
  end

(* Whether a predicate reads the proximity position, i.e. depends on the
   context group.  Positions inside an [Exists] path count within that
   path's own groups, not this one. *)
let rec positional (pred : Ast.pred) =
  match pred with
  | Ast.Position _ | Ast.Last -> true
  | Ast.And (a, b) | Ast.Or (a, b) -> positional a || positional b
  | Ast.Not p -> positional p
  | Ast.Has_attr _ | Ast.Attr_eq _ | Ast.Attr_neq _ | Ast.Exists _ -> false

let attr it a = if Dom.is_element it.node then Dom.attr it.node a else None

(* A context group is in proximity order: document order, or its
   reverse on the reverse axes. *)
let in_document_order items =
  Array.length items < 2 || items.(0).start_pos < items.(1).start_pos

(* [pred_mask t items live pred] evaluates [pred] over one context group
   [items] where [live] holds, and is false elsewhere.  A [[p]] whose
   path is one child/descendant step without positional predicates runs
   as one ancestor-side semi-join over the whole group, when the group
   is in document order; other paths run per item. *)
let rec pred_mask t items live (pred : Ast.pred) =
  let n = Array.length items in
  let each f = Array.mapi (fun i it -> live.(i) && f i it) items in
  match pred with
  | Ast.Position k -> each (fun i _ -> i + 1 = k)
  | Ast.Last -> each (fun i _ -> i + 1 = n)
  | Ast.Has_attr a -> each (fun _ it -> Option.is_some (attr it a))
  | Ast.Attr_eq (a, v) ->
    each (fun _ it ->
        match attr it a with Some x -> String.equal x v | None -> false)
  | Ast.Attr_neq (a, v) ->
    each (fun _ it ->
        match attr it a with Some x -> not (String.equal x v) | None -> false)
  | Ast.And (a, b) ->
    pred_mask t items (pred_mask t items live a) b
  | Ast.Or (a, b) ->
    let ma = pred_mask t items live a in
    let rest = Array.map2 (fun l m -> l && not m) live ma in
    Array.map2 ( || ) ma (pred_mask t items rest b)
  | Ast.Not p ->
    Array.map2 (fun l m -> l && not m) live (pred_mask t items live p)
  | Ast.Exists
      [ ({ axis = (Ast.Child | Ast.Descendant) as axis; _ } as s) ]
    when in_document_order items && not (List.exists positional s.preds) ->
    let child = match axis with Ast.Child -> true | _ -> false in
    let d = sorted_items t s.test in
    let d =
      match s.preds with
      | [] -> d
      | preds -> filter_group t preds (semi_join ~child items d)
    in
    Array.map2 ( && ) live (contains ~child items d)
  | Ast.Exists steps ->
    each (fun _ it ->
        let found =
          List.fold_left (fun ctx s -> eval_step t s ctx) [| it |] steps
        in
        Array.length found > 0)

(* Predicates filter one context group in turn, each counting positions
   within the previous one's survivors. *)
and filter_group t preds items =
  List.fold_left
    (fun items pred ->
      let all = Array.make (Array.length items) true in
      let keep = pred_mask t items all pred in
      select (fun i _ -> keep.(i)) items)
    items preds

(* The grouped positional scan, for child/descendant steps whose
   predicates read positions: each context's group is the candidates
   between its start and end (child: one level below it), filtered on
   its own.  Survivors are marked by their position in [d] and read back
   in that order — document order, without duplicates. *)
and grouped_scan t ~child preds ctx d =
  let lo, hi = window ctx d in
  let hit = Array.make (hi - lo) false in
  Array.iter
    (fun c ->
      let first = upper_bound d c.start_pos in
      let group = Array.sub d first (upper_bound d c.end_pos - first) in
      let group =
        if child then select (fun _ x -> x.level = c.level + 1) group
        else group
      in
      Array.iter
        (fun x -> hit.(upper_bound d x.start_pos - 1 - lo) <- true)
        (filter_group t preds group))
    ctx;
  select (fun i _ -> hit.(i)) (Array.sub d lo (Array.length hit))

(* One location step over a context array sorted by start label and
   duplicate-free; the result is too.  Child/descendant steps are the
   semi-join, whose flat output the predicates filter item by item, or —
   when a predicate reads positions — the grouped scan.  The other axes
   select per context and merge through a dedup table. *)
and eval_step t (step : Ast.step) contexts =
  match step.axis with
  | Ast.Child | Ast.Descendant ->
    let child = match step.axis with Ast.Child -> true | _ -> false in
    let d = sorted_items t step.test in
    if List.exists positional step.preds then
      grouped_scan t ~child step.preds contexts d
    else filter_group t step.preds (semi_join ~child contexts d)
  | Ast.Self | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self
  | Ast.Following | Ast.Preceding | Ast.Following_sibling
  | Ast.Preceding_sibling ->
    let cands =
      (* The upward axes fetch labels per node; the order axes filter the
         tag index. *)
      match step.axis with
      | Ast.Following | Ast.Preceding | Ast.Following_sibling
      | Ast.Preceding_sibling ->
        candidates t step.test
      | _ -> []
    in
    let filter group =
      match step.preds with
      | [] -> group
      | preds -> Array.to_list (filter_group t preds (Array.of_list group))
    in
    Array.of_list
      (dedup_sorted
         (Array.fold_right
            (fun c groups -> filter (axis_group t step cands c) :: groups)
            contexts []))

let eval t (path : Ast.t) =
  match (Labeled_doc.document t.ldoc).root with
  | None -> []
  | Some root -> (
      match path.steps with
      | [] -> []
      | first :: rest ->
        let contexts0 =
          match first.axis with
          | Ast.Child | Ast.Self ->
            if matches_test first.test root then
              match item_of t root with Some it -> [| it |] | None -> [||]
            else [||]
          | Ast.Descendant ->
            (* The test's candidates are root-inclusive already. *)
            sorted_items t first.test
          | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self | Ast.Following
          | Ast.Preceding | Ast.Following_sibling | Ast.Preceding_sibling ->
            [||]
        in
        let contexts0 = filter_group t first.preds contexts0 in
        let final =
          List.fold_left (fun ctx step -> eval_step t step ctx) contexts0 rest
        in
        Array.fold_right (fun it nodes -> it.node :: nodes) final [])

let eval_string t s = eval t (Xpath_parser.parse s)
