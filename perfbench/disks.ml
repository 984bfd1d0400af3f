(* Write-path values from the metered disks of one epoch. *)

let values r (m : Meter.t) ~writes ~payload =
  Run.ratio_i r "doc.snapshot_bytes" m.Meter.snapshot_bytes m.Meter.snapshot_writes;
  Run.ratio r "recovery.io_us" (Meter.io_total m *. 1e6) (float_of_int writes);
  List.iteri
    (fun i p -> Run.ratio r ("recovery.io_" ^ p ^ "_us") (m.Meter.io_s.(i) *. 1e6) (float_of_int writes))
    Meter.primitives;
  Run.ratio_i r "recovery.fsyncs_per_write" m.Meter.fsyncs writes;
  Run.ratio_i r "recovery.journal_bytes_per_write" m.Meter.journal_bytes writes;
  Run.ratio_i r "recovery.read_bytes_per_write" m.Meter.read writes;
  Run.count r "recovery.checkpoints" m.Meter.snapshot_writes;
  Run.ratio_i r "write_amp" (m.Meter.written + m.Meter.appended) payload
