(* The edit mix every writing workload draws from: 70% insert a small
   bidder subtree into a Zipf(1)-chosen [item], 15% delete a previously
   inserted subtree, 15% replace the text of a Zipf-chosen item's
   [name].  Entries address their targets by begin-tag label, exactly
   as a client of the journal would, so the same generator drives a
   plain durable store, a replicated session or a sharded router.  The
   choice sequence is a function of the seed and the document alone. *)

open Ltree_xml
module Labeled_doc = Ltree_doc.Labeled_doc
module Journal = Ltree_doc.Journal
module Prng = Ltree_workload.Prng
module Zipf = Ltree_workload.Zipf

type kind = Insert | Delete | Set_text

type op = {
  entry : Journal.entry;
  kind : kind;
  payload : int;  (** user bytes: the fragment or the new text *)
  parent : Dom.node;  (** insert: the item; otherwise the target *)
  index : int;
}

type t = {
  mutable ldoc : Labeled_doc.t;
  mutable items : Dom.node array;
  mutable names : Dom.node array;  (** text of each item's [name] *)
  mutable bag : Dom.node array;  (** inserted subtrees still live *)
  mutable bag_len : int;
  prng : Prng.t;
  zipf : Zipf.t;
  mutable serial : int;
}

let name_text item =
  let is_name n = Dom.is_element n && String.equal (Dom.name n) "name" in
  match List.find_opt is_name (Dom.children item) with
  | Some n -> (
    match List.find_opt Dom.is_text (Dom.children n) with
    | Some txt -> txt
    | None -> invalid_arg "Editor: item name without text")
  | None -> invalid_arg "Editor: item without a name"

(* Inserted subtrees are the [bidder] children of items: the generated
   documents put bidders only under auctions. *)
let inserted_under items =
  Array.of_list
    (List.concat_map
       (fun it ->
         List.filter
           (fun c -> Dom.is_element c && String.equal (Dom.name c) "bidder")
           (Dom.children it))
       (Array.to_list items))

let scan t ldoc =
  let root = Ctx.root (Labeled_doc.document ldoc) in
  t.ldoc <- ldoc;
  t.items <- Array.of_list (Dom.elements_by_name root "item");
  t.names <- Array.map name_text t.items;
  let bag = inserted_under t.items in
  t.bag <- (if Array.length bag = 0 then Array.make 16 root else bag);
  t.bag_len <- Array.length bag

let create ~seed ldoc =
  let t =
    {
      ldoc; items = [||]; names = [||]; bag = [||]; bag_len = 0;
      prng = Prng.create seed; zipf = Zipf.create ~n:1 ~alpha:1.0; serial = 0;
    }
  in
  scan t ldoc;
  { t with zipf = Zipf.create ~n:(Array.length t.items) ~alpha:1.0 }

(* [rebind t ldoc] points the generator at a recovered document: fresh
   node identities, same labels, possibly fewer inserted subtrees. *)
let rebind t ldoc = scan t ldoc

let start ldoc n = (Labeled_doc.label ldoc n).Labeled_doc.start_pos

let draw_insert t =
  let item = t.items.(Zipf.sample t.zipf t.prng) in
  let index = Prng.int t.prng (Dom.child_count item + 1) in
  let xml =
    Printf.sprintf
      "<bidder><date>%02d/%02d/2004</date><increase>%d</increase></bidder>"
      (1 + Prng.int t.prng 12) (1 + Prng.int t.prng 28) t.serial
  in
  { entry = Journal.Insert { anchor = start t.ldoc item; index; xml };
    kind = Insert; payload = String.length xml; parent = item; index }

let next t =
  t.serial <- t.serial + 1;
  let roll = Prng.int t.prng 100 in
  if roll >= 70 && roll < 85 && t.bag_len > 0 then begin
    let j = Prng.int t.prng t.bag_len in
    let node = t.bag.(j) in
    t.bag.(j) <- t.bag.(t.bag_len - 1);
    t.bag_len <- t.bag_len - 1;
    { entry = Journal.Delete { anchor = start t.ldoc node }; kind = Delete;
      payload = 0; parent = node; index = 0 }
  end
  else if roll >= 85 then begin
    let i = Zipf.sample t.zipf t.prng in
    let text = Printf.sprintf "lot %d" t.serial in
    { entry = Journal.Set_text { anchor = start t.ldoc t.names.(i); text };
      kind = Set_text; payload = String.length text; parent = t.names.(i);
      index = 0 }
  end
  else draw_insert t

(* [insert t] draws an insert alone: a bidder subtree into a Zipf-chosen
   item, at a uniform child position. *)
let insert t =
  t.serial <- t.serial + 1;
  draw_insert t

(* [applied t op] records an applied insert's new subtree as deletable. *)
let applied t op =
  match op.kind with
  | Insert ->
    if t.bag_len = Array.length t.bag then begin
      let b = Array.make (2 * t.bag_len) t.bag.(0) in
      Array.blit t.bag 0 b 0 t.bag_len;
      t.bag <- b
    end;
    t.bag.(t.bag_len) <- List.nth (Dom.children op.parent) op.index;
    t.bag_len <- t.bag_len + 1
  | Delete | Set_text -> ()
