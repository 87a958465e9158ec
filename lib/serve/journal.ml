module Registry = Mcss_obs.Registry
module Counter = Mcss_obs.Metric.Counter
module Histogram = Mcss_obs.Metric.Histogram
module Clock = Mcss_obs.Clock

type config = { dir : string; fsync : bool; snapshot_every : int }

let default_config ~dir = { dir; fsync = true; snapshot_every = 256 }

type replay = {
  records : (int * string) list;
  snapshot_records : int;
  wal_records : int;
  truncated_bytes : int;
  corrupt_records : int;
  dropped_frames : int;
}

(* ----- CRC-32 (IEEE 802.3 / zlib polynomial, table-driven) ----- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ----- framing ----- *)

let header_bytes = 16
let max_record_bytes = 256 * 1024 * 1024

(* The CRC covers the epoch field as well as the payload, so a flipped
   epoch byte is detected exactly like payload corruption. *)
let epoch_bytes epoch =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int epoch);
  Bytes.unsafe_to_string b

let frame ~epoch payload =
  let len = String.length payload in
  if len > max_record_bytes then
    invalid_arg (Printf.sprintf "Journal.append: record of %d bytes" len);
  if epoch < 0 then invalid_arg "Journal.frame: negative epoch";
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (crc32 (epoch_bytes epoch ^ payload));
  Bytes.set_int64_le b 8 (Int64.of_int epoch);
  Bytes.blit_string payload 0 b header_bytes len;
  Bytes.unsafe_to_string b

(* Scan the framed records of [path]. Returns the [(epoch, payload)]
   records in order, the byte offset just past the last good record, how
   many framing/CRC failures stopped the scan (0 or 1 — the first
   failure ends recovery, since nothing after an unsynchronised point
   can be trusted), and how many frames the cut tail appears to hold.
   The dropped count is best-effort forensics for replay stats: after
   the first failure we keep walking frame headers (without trusting
   payloads) to estimate how much history was lost; any unsynchronised
   remainder counts as one more frame. *)
let scan path =
  match open_in_bin path with
  | exception Sys_error _ -> ([], 0, 0, 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let header = Bytes.create header_bytes in
          (* Count-only continuation past the first failure: follow frame
             headers while they stay plausible, never recovering data. *)
          let rec count_tail dropped pos =
            if pos >= total then dropped
            else if total - pos < header_bytes then dropped + 1
            else begin
              seek_in ic pos;
              really_input ic header 0 header_bytes;
              let len = Int32.to_int (Bytes.get_int32_le header 0) in
              if len < 0 || len > max_record_bytes then dropped + 1
              else if total - pos - header_bytes < len then dropped + 1
              else count_tail (dropped + 1) (pos + header_bytes + len)
            end
          in
          let rec go acc good_end =
            if total - good_end < header_bytes then
              let dropped = if total > good_end then 1 else 0 in
              (List.rev acc, good_end, 0, dropped)
            else begin
              really_input ic header 0 header_bytes;
              let len = Int32.to_int (Bytes.get_int32_le header 0) in
              let crc = Bytes.get_int32_le header 4 in
              let epoch = Int64.to_int (Bytes.get_int64_le header 8) in
              if len < 0 || len > max_record_bytes || epoch < 0 then
                (* A garbage length or epoch: unsynchronised, cut here. *)
                (List.rev acc, good_end, 1, count_tail 0 good_end)
              else if total - good_end - header_bytes < len then
                (* Torn tail: the payload never fully made it to disk. *)
                (List.rev acc, good_end, 0, 1)
              else
                let payload = really_input_string ic len in
                if crc32 (epoch_bytes epoch ^ payload) <> crc then
                  (List.rev acc, good_end, 1, count_tail 0 good_end)
                else go ((epoch, payload) :: acc) (good_end + header_bytes + len)
            end
          in
          go [] 0)

(* ----- the journal ----- *)

type t = {
  config : config;
  obs : Registry.t;
  lock : Mutex.t;
  mutable wal_fd : Unix.file_descr option;
  mutable wal_count : int;
  mutable snapshot_count : int;
  mutable base : int;
      (* Absolute index of the last record folded into the snapshot; the
         WAL holds records [base+1 .. base+wal_count]. Persisted in
         base.mcssj so indices survive restarts and snapshot folds. *)
  mutable epoch : int;
      (* The fencing epoch this journal currently writes at. Never
         decreases; persisted in epoch.mcssj on every change and floored
         at open by the highest epoch seen in any recovered frame. *)
  mutable last_epoch : int;
      (* Epoch of the most recently appended record (0 when empty) —
         what the replication handshake reports so a leader can detect a
         divergent tail, not just a divergent length. *)
}

let wal_path_of dir = Filename.concat dir "wal.mcssj"
let snapshot_path_of dir = Filename.concat dir "snapshot.mcssj"
let base_path_of dir = Filename.concat dir "base.mcssj"
let epoch_path_of dir = Filename.concat dir "epoch.mcssj"

let wal_path t = wal_path_of t.config.dir
let snapshot_path t = snapshot_path_of t.config.dir
let base_path t = base_path_of t.config.dir
let epoch_path t = epoch_path_of t.config.dir

let read_int_file path =
  match open_in_bin path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match int_of_string_opt (String.trim (input_line ic)) with
          | Some n when n >= 0 -> n
          | Some _ | None | (exception End_of_file) -> 0)

let read_base dir = read_int_file (base_path_of dir)
let read_epoch dir = read_int_file (epoch_path_of dir)

let rec fsync_eintr fd =
  try Unix.fsync fd
  with Unix.Unix_error (Unix.EINTR, _, _) -> fsync_eintr fd

let fsync_timed t fd =
  let t0 = Clock.now_ns () in
  fsync_eintr fd;
  Histogram.observe
    (Registry.histogram t.obs ~help:"Journal fsync latency (seconds)"
       "serve.journal.fsync_seconds")
    (Clock.seconds_since t0)

let fsync_dir dir =
  (* Persist the rename/creation itself; best-effort where directories
     cannot be fsynced (some filesystems refuse). *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let count c name help n =
  if n > 0 then Counter.add (Registry.counter c ~help name) n

let open_ ?obs config =
  let obs = match obs with Some r -> r | None -> Registry.noop in
  Mcss_report.Fs.mkdir_p config.dir;
  let snap_records, _snap_end, snap_corrupt, snap_dropped =
    scan (snapshot_path_of config.dir)
  in
  let wal_records, wal_end, wal_corrupt, wal_dropped =
    scan (wal_path_of config.dir)
  in
  (* Cut the torn/corrupt tail off the WAL so the next append starts at
     a clean frame boundary. *)
  let wal = wal_path_of config.dir in
  let truncated_bytes =
    match Unix.openfile wal [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let size = (Unix.fstat fd).Unix.st_size in
            if size > wal_end then Unix.ftruncate fd wal_end;
            size - wal_end)
    | exception Unix.Unix_error _ -> 0
  in
  let wal_fd =
    Unix.openfile wal [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let records = snap_records @ wal_records in
  let max_record_epoch =
    List.fold_left (fun acc (e, _) -> max acc e) 0 records
  in
  let last_epoch =
    match List.rev records with (e, _) :: _ -> e | [] -> 0
  in
  let t =
    {
      config;
      obs;
      lock = Mutex.create ();
      wal_fd = Some wal_fd;
      wal_count = List.length wal_records;
      snapshot_count = 0;
      base = read_base config.dir;
      epoch = max (read_epoch config.dir) max_record_epoch;
      last_epoch;
    }
  in
  let replay =
    {
      records;
      snapshot_records = List.length snap_records;
      wal_records = List.length wal_records;
      truncated_bytes = max 0 truncated_bytes;
      corrupt_records = snap_corrupt + wal_corrupt;
      dropped_frames = snap_dropped + wal_dropped;
    }
  in
  count obs "serve.journal.replay.records" "Records recovered at startup"
    (List.length replay.records);
  count obs "serve.journal.replay.truncated_bytes"
    "Torn WAL tail bytes cut at startup" replay.truncated_bytes;
  count obs "serve.journal.replay.corrupt_records"
    "CRC/framing failures hit during replay" replay.corrupt_records;
  count obs "serve.journal.replay.dropped_frames"
    "Frames lost to the cut tail at startup" replay.dropped_frames;
  (t, replay)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let live t =
  match t.wal_fd with
  | Some fd -> fd
  | None -> raise (Sys_error "journal is closed")

(* Persist a small integer file atomically: temp, fsync, rename. Used
   for both the base index and the epoch. *)
let write_int_file_locked t path v =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (string_of_int v ^ "\n");
      fsync_timed t fd);
  Unix.rename tmp path;
  fsync_dir t.config.dir

(* Caller holds [t.lock]. Epochs only ever move up: adopting a lower
   epoch would let a fenced-off leader write records that sort before
   history it has already mirrored. *)
let set_epoch_locked t e =
  if e > t.epoch then begin
    write_int_file_locked t (epoch_path t) e;
    t.epoch <- e;
    Counter.inc
      (Registry.counter t.obs ~help:"Fencing epoch adoptions (raises only)"
         "serve.journal.epoch_raises")
  end

let epoch t = locked t (fun () -> t.epoch)
let last_epoch t = locked t (fun () -> t.last_epoch)
let set_epoch t e = locked t (fun () -> set_epoch_locked t e)

let bump_epoch t =
  locked t (fun () ->
      set_epoch_locked t (t.epoch + 1);
      t.epoch)

let append ?epoch t payload =
  locked t (fun () ->
      let fd = live t in
      (* An explicit epoch is stamped verbatim (it can sit below the
         journal's floor: a follower mirroring a leader's backlog writes
         each frame at the epoch the leader originally wrote it, so the
         two WALs stay byte-identical) and raises the floor when ahead. *)
      let e =
        match epoch with
        | Some e ->
            set_epoch_locked t e;
            e
        | None -> t.epoch
      in
      let bytes = frame ~epoch:e payload in
      write_all fd bytes;
      if t.config.fsync then fsync_timed t fd;
      t.wal_count <- t.wal_count + 1;
      t.last_epoch <- e;
      Counter.inc
        (Registry.counter t.obs ~help:"Records appended to the WAL"
           "serve.journal.appends");
      Counter.add
        (Registry.counter t.obs ~help:"Bytes appended to the WAL, frame headers included"
           "serve.journal.append_bytes")
        (String.length bytes))

let wal_records t = locked t (fun () -> t.wal_count)
let base_index t = locked t (fun () -> t.base)
let last_index t = locked t (fun () -> t.base + t.wal_count)

let snapshot_due t =
  locked t (fun () ->
      t.config.snapshot_every > 0 && t.wal_count >= t.config.snapshot_every)

(* Both callers hold [t.lock]. Writes the new base index atomically; a
   crash between the snapshot rename and this write only inflates the
   apparent WAL span, which replication detects as a resync. *)
let write_base_locked t base =
  write_int_file_locked t (base_path t) base;
  t.base <- base

(* Caller holds [t.lock]. Snapshot records are stamped with the epoch
   current at fold time — the fold rewrites history the journal already
   owns, and a single stamp keeps the non-decreasing epoch invariant
   for everything appended afterwards. *)
let write_snapshot_locked t payloads =
  let tmp = snapshot_path t ^ ".tmp" in
  let snap_fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close snap_fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.iter (fun p -> write_all snap_fd (frame ~epoch:t.epoch p)) payloads;
      fsync_timed t snap_fd);
  Unix.rename tmp (snapshot_path t);
  fsync_dir t.config.dir

(* Caller holds [t.lock]. *)
let truncate_wal_locked t =
  let fd = live t in
  Unix.ftruncate fd 0;
  if t.config.fsync then fsync_timed t fd;
  t.wal_count <- 0;
  t.snapshot_count <- t.snapshot_count + 1;
  Counter.inc
    (Registry.counter t.obs ~help:"Snapshot rewrites since start"
       "serve.journal.snapshots")

let snapshot t payloads =
  locked t (fun () ->
      let new_base = t.base + t.wal_count in
      write_snapshot_locked t payloads;
      write_base_locked t new_base;
      (* The WAL's contents are now folded into the snapshot. *)
      truncate_wal_locked t;
      t.last_epoch <- t.epoch)

let install_snapshot t ~base ~epoch payloads =
  if base < 0 then invalid_arg "Journal.install_snapshot: negative base";
  locked t (fun () ->
      set_epoch_locked t epoch;
      write_snapshot_locked t payloads;
      write_base_locked t base;
      truncate_wal_locked t;
      t.last_epoch <- t.epoch)

let read_from t ~index =
  locked t (fun () ->
      if index < t.base || index > t.base + t.wal_count then Error `Resync
      else begin
        (* Re-scan the WAL on disk: everything appended so far is there,
           and we hold the lock so no append can race the scan. *)
        let records, _, _, _ = scan (wal_path t) in
        let rec drop n l =
          if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
        in
        let tail = drop (index - t.base) records in
        Ok (List.mapi (fun i (e, p) -> (index + 1 + i, e, p)) tail)
      end)

(* The epoch a given WAL record was written at, for the replication
   handshake's divergence check. [None] when the index is not in the
   WAL (folded into the snapshot, or past the end). *)
let epoch_at t ~index =
  locked t (fun () ->
      if index <= t.base || index > t.base + t.wal_count then None
      else
        let records, _, _, _ = scan (wal_path t) in
        match List.nth_opt records (index - t.base - 1) with
        | Some (e, _) -> Some e
        | None -> None)

let iter_from t ~index f =
  match read_from t ~index with
  | Error `Resync -> Error `Resync
  | Ok records ->
      List.iter (fun (i, e, p) -> f ~index:i ~epoch:e p) records;
      Ok (List.length records)

let snapshots_taken t = locked t (fun () -> t.snapshot_count)

let close t =
  locked t (fun () ->
      match t.wal_fd with
      | None -> ()
      | Some fd ->
          t.wal_fd <- None;
          (try if t.config.fsync then Unix.fsync fd with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ()))

(* ----- read-only verification (mcss journal --verify) ----- *)

type verify_report = {
  v_snapshot_records : int;
  v_wal_records : int;
  v_corrupt_records : int;
  v_dropped_frames : int;
  v_trailing_bytes : int;
      (* Bytes past the last good WAL frame (torn or corrupt tail). *)
  v_base_index : int;
  v_persisted_epoch : int;
  v_min_epoch : int;
  v_max_epoch : int;
  v_epoch_regressions : int;
}

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Scan both files without opening anything for write: unlike {!open_},
   a torn tail is reported, never truncated — the journal on disk is
   byte-identical before and after. *)
let verify ~dir =
  let snap_records, _, snap_corrupt, snap_dropped = scan (snapshot_path_of dir) in
  let wal_records, wal_end, wal_corrupt, wal_dropped = scan (wal_path_of dir) in
  let records = snap_records @ wal_records in
  let epochs = List.map fst records in
  let regressions =
    match epochs with
    | [] -> 0
    | first :: rest ->
        snd
          (List.fold_left
             (fun (prev, bad) e -> (e, if e < prev then bad + 1 else bad))
             (first, 0) rest)
  in
  {
    v_snapshot_records = List.length snap_records;
    v_wal_records = List.length wal_records;
    v_corrupt_records = snap_corrupt + wal_corrupt;
    v_dropped_frames = snap_dropped + wal_dropped;
    v_trailing_bytes = max 0 (file_size (wal_path_of dir) - wal_end);
    v_base_index = read_base dir;
    v_persisted_epoch = read_epoch dir;
    v_min_epoch = List.fold_left min (match epochs with [] -> 0 | e :: _ -> e) epochs;
    v_max_epoch = List.fold_left max 0 epochs;
    v_epoch_regressions = regressions;
  }
