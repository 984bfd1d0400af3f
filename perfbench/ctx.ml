(* What a workload is given and what it hands back to the runner. *)

type t = {
  seed : int;
  smoke : bool;  (** tiny documents, for the benchmark's own tests *)
  pool_size : int;  (** domains in the execution pool: min 2 nproc *)
}

(* A set-up workload, ready for its first measured op. *)
type instance = {
  setup_s : float;
      (** from the generated DOM to the first measured op: labeling,
          shredding, initial checkpoint, replica bootstrap, shard split,
          pool spawn and index warm-up *)
  header : (string * int) list;  (** sizes for the run header *)
  step : Run.t -> unit;  (** one measured op, with any maintenance due *)
  finish : Run.t -> unit;
      (** end-of-phase oracles and per-layer values, outside any window *)
  label_bits : unit -> int;  (** bits per label of the primary/router tree *)
  teardown : unit -> unit;  (** stop the pool, if any *)
}

(* [xmark ctx ~scale] is the workload's generated document; smoke runs
   shrink every workload to the same tiny size. *)
let xmark ctx ~scale =
  Ltree_workload.Xml_gen.xmark ~seed:ctx.seed
    ~scale:(if ctx.smoke then 1.0 else scale) ()

let root (doc : Ltree_xml.Dom.document) =
  match doc.Ltree_xml.Dom.root with
  | Some r -> r
  | None -> invalid_arg "perfbench: document without a root"
