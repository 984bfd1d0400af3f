(* Execution-pool values from {!Ltree_exec.Pool.stats} deltas. *)

module Pool = Ltree_exec.Pool

let values r (a : Pool.stats) (b : Pool.stats) =
  let par = b.Pool.parallel_jobs - a.Pool.parallel_jobs in
  let ser = b.Pool.serial_jobs - a.Pool.serial_jobs in
  Run.ratio_i r "exec.claims_per_job" (b.Pool.claim_ops - a.Pool.claim_ops) par;
  Run.ratio_i r "exec.serial_job_share" ser (par + ser);
  let chunks = Array.mapi (fun k n -> n - a.Pool.per_worker.(k)) b.Pool.per_worker in
  (* Pooled over epochs: the least-loaded participant's chunks over all
     chunks. *)
  Run.ratio_i r "exec.worker_share_min"
    (Array.fold_left min max_int chunks)
    (Array.fold_left ( + ) 0 chunks)
