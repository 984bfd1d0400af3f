(* Result oracles.  Every read the benchmark times is compared, outside
   the timed window, with {!Ltree_xpath.Dom_eval} — plain DOM navigation
   that shares no code with the label plans — over the same document. *)

open Ltree_xml
module Dom_eval = Ltree_xpath.Dom_eval

let sorted_ids nodes = List.sort Int.compare (List.map Dom.id nodes)

(* [expected doc path] is the sorted Dom ids [path] selects. *)
let expected doc path = sorted_ids (Dom_eval.eval doc path)

let same_ids (a : int list) b = List.equal Int.equal a b

(* Document-order node lists (the XPath engines' output) compare by
   identity, in order. *)
let same_nodes a b = List.equal (fun x y -> Dom.id x = Dom.id y) a b

(* [damage ids] is a deliberately wrong result: one id dropped, or a
   bogus one added to an empty result.  The benchmark's tests feed it
   to the oracle to prove a wrong answer fails the run. *)
let damage = function [] -> [ -1 ] | _ :: rest -> rest

let damage_nodes = function
  | [] -> [ Dom.element "bogus" ]
  | _ :: rest -> rest

let labels ldoc = Ltree_core.Ltree.labels (Ltree_doc.Labeled_doc.tree ldoc)

let same_labels a b =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b
