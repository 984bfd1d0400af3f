(* The device seam: an accounting wrapper over a simulated disk's
   {!Ltree_recovery.Fault.io} record.  Every store the benchmark builds
   gets its disk through [wrap], so bytes written, appended and read,
   fsyncs, snapshot and journal bytes, and the time spent inside each
   primitive are counted per disk without touching the store code.
   The disks are simulated, so the times are the host CPU's cost of
   simulating them, not a real device's latency. *)

module Fault = Ltree_recovery.Fault

type t = {
  mutable written : int;  (** bytes passed to [write_file] *)
  mutable appended : int;  (** bytes passed to [append_file] *)
  mutable read : int;  (** bytes returned by [read_file] *)
  mutable fsyncs : int;
  mutable snapshot_writes : int;  (** [write_file] calls on [*snapshot.tmp] *)
  mutable snapshot_bytes : int;
  mutable journal_bytes : int;  (** [append_file] bytes on [*journal] *)
  io_s : float array;  (** seconds inside each primitive, by {!primitives} *)
}

(* The primitives timed apart: [io_s.(i)] is the time in the [i]-th,
   so [wrap] times [write_file] into 0, [append_file] into 1,
   [read_file] into 2, [fsync] into 3, and [rename_file], [remove_file]
   and [file_exists] into 4 ([meta]). *)
let primitives = [ "write"; "append"; "read"; "fsync"; "meta" ]

let create () =
  {
    written = 0; appended = 0; read = 0; fsyncs = 0; snapshot_writes = 0;
    snapshot_bytes = 0; journal_bytes = 0;
    io_s = Array.make (List.length primitives) 0.0;
  }

let ends_with s suffix = String.ends_with ~suffix s

let timed m i f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  m.io_s.(i) <- m.io_s.(i) +. (Unix.gettimeofday () -. t0);
  r

(* [io_total m] is the seconds inside any primitive. *)
let io_total m = Array.fold_left ( +. ) 0.0 m.io_s

let wrap m (io : Fault.io) : Fault.io =
  {
    Fault.read_file =
      (fun path ->
        let r = timed m 2 (fun () -> io.Fault.read_file path) in
        (match r with Some s -> m.read <- m.read + String.length s | None -> ());
        r);
    write_file =
      (fun path data ->
        timed m 0 (fun () -> io.Fault.write_file path data);
        m.written <- m.written + String.length data;
        if ends_with path "snapshot.tmp" then begin
          m.snapshot_writes <- m.snapshot_writes + 1;
          m.snapshot_bytes <- m.snapshot_bytes + String.length data
        end);
    append_file =
      (fun path data ->
        timed m 1 (fun () -> io.Fault.append_file path data);
        m.appended <- m.appended + String.length data;
        if ends_with path "journal" then
          m.journal_bytes <- m.journal_bytes + String.length data);
    rename_file = (fun ~src ~dst -> timed m 4 (fun () -> io.Fault.rename_file ~src ~dst));
    fsync =
      (fun path ->
        timed m 3 (fun () -> io.Fault.fsync path);
        m.fsyncs <- m.fsyncs + 1);
    remove_file = (fun path -> timed m 4 (fun () -> io.Fault.remove_file path));
    file_exists = (fun path -> timed m 4 (fun () -> io.Fault.file_exists path));
  }

(* [sim_disk m] is a fresh simulated disk whose io is metered by [m]. *)
let sim_disk ?files m =
  let sim = Fault.create_sim ?files () in
  (sim, wrap m (Fault.sim_io sim))

(* [sum ms] adds several disks' meters into one. *)
let sum ms =
  let t = create () in
  List.iter
    (fun m ->
      t.written <- t.written + m.written;
      t.appended <- t.appended + m.appended;
      t.read <- t.read + m.read;
      t.fsyncs <- t.fsyncs + m.fsyncs;
      t.snapshot_writes <- t.snapshot_writes + m.snapshot_writes;
      t.snapshot_bytes <- t.snapshot_bytes + m.snapshot_bytes;
      t.journal_bytes <- t.journal_bytes + m.journal_bytes;
      Array.iteri (fun i s -> t.io_s.(i) <- t.io_s.(i) +. s) m.io_s)
    ms;
  t

(* [diff a b] is [a - b], field by field: the accounting of one phase. *)
let diff a b =
  {
    written = a.written - b.written;
    appended = a.appended - b.appended;
    read = a.read - b.read;
    fsyncs = a.fsyncs - b.fsyncs;
    snapshot_writes = a.snapshot_writes - b.snapshot_writes;
    snapshot_bytes = a.snapshot_bytes - b.snapshot_bytes;
    journal_bytes = a.journal_bytes - b.journal_bytes;
    io_s = Array.map2 ( -. ) a.io_s b.io_s;
  }

let copy m = diff m (create ())
