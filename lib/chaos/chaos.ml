(* A fault-injecting socket proxy.

   Sits between a client and the prediction server and mangles the
   byte stream according to a composable fault spec, mirroring the way
   Timing.Faults injects dirty *data*: each fault is a knob, [none]
   turns them all off, and any combination composes. The E16 soak
   experiment drives a server through this proxy and asserts the
   serving invariants (zero wrong answers, zero server deaths, bounded
   clean-lane latency) while the faults rage.

   Corruption deliberately writes the byte 0x01: a control character is
   illegal everywhere in the compact single-line JSON the wire speaks
   (Wire.parse rejects control characters inside strings and no token
   admits one), so a corrupted frame can only ever fail to parse —
   never silently alter a prediction. That is what keeps the soak's
   "every ok:true answer is bit-identical" invariant checkable. *)

type spec = {
  delay_ms : float;       (* fixed forwarding delay per chunk *)
  jitter_ms : float;      (* extra uniform delay in [0, jitter_ms] *)
  partial_write : float;  (* P(chunk dribbled out in small fragments) *)
  truncate : float;       (* P(chunk cut short mid-frame, then dropped link) *)
  corrupt : float;        (* P(one byte of the chunk replaced with 0x01) *)
  disconnect : float;     (* P(link dropped instead of forwarding) *)
  stall : float;          (* P(connection accepted, then never answered) *)
  eintr_burst : int;      (* SIGUSR1s fired at the victim per chunk *)
}

let none =
  {
    delay_ms = 0.0;
    jitter_ms = 0.0;
    partial_write = 0.0;
    truncate = 0.0;
    corrupt = 0.0;
    disconnect = 0.0;
    stall = 0.0;
    eintr_burst = 0;
  }

let validate s =
  let rate name v =
    if not (Float.is_finite v) || v < 0.0 || v > 1.0 then
      invalid_arg (Printf.sprintf "Chaos: %s rate %g outside [0, 1]" name v)
  in
  let delay name v =
    if not (Float.is_finite v) || v < 0.0 then
      invalid_arg (Printf.sprintf "Chaos: %s %g must be finite and >= 0" name v)
  in
  rate "partial" s.partial_write;
  rate "truncate" s.truncate;
  rate "corrupt" s.corrupt;
  rate "disconnect" s.disconnect;
  rate "stall" s.stall;
  delay "delay-ms" s.delay_ms;
  delay "jitter-ms" s.jitter_ms;
  if s.eintr_burst < 0 then invalid_arg "Chaos: eintr burst must be >= 0"

(* ------------------------------------------------------------------ *)
(* CLI-friendly spec strings: "delay=2,corrupt=0.05,stall=0.1,eintr=3" *)

let of_string str =
  let parse_field acc kv =
    let kv = String.trim kv in
    if kv = "" then Ok acc
    else
      match String.index_opt kv '=' with
      | None -> Result.Error (Printf.sprintf "chaos field %S has no '='" kv)
      | Some i ->
        let key = String.trim (String.sub kv 0 i) in
        let sv = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
        (match float_of_string_opt sv with
         | None -> Result.Error (Printf.sprintf "chaos field %S: bad number %S" key sv)
         | Some v ->
           (match key with
            | "delay" | "delay-ms" -> Ok { acc with delay_ms = v }
            | "jitter" | "jitter-ms" -> Ok { acc with jitter_ms = v }
            | "partial" | "partial-write" -> Ok { acc with partial_write = v }
            | "truncate" -> Ok { acc with truncate = v }
            | "corrupt" -> Ok { acc with corrupt = v }
            | "disconnect" -> Ok { acc with disconnect = v }
            | "stall" -> Ok { acc with stall = v }
            | "eintr" | "eintr-burst" -> Ok { acc with eintr_burst = int_of_float v }
            | _ -> Result.Error (Printf.sprintf "unknown chaos field %S" key)))
  in
  let rec go acc = function
    | [] ->
      (match validate acc with
       | () -> Ok acc
       | exception Invalid_argument m -> Result.Error m)
    | kv :: rest ->
      (match parse_field acc kv with
       | Ok acc -> go acc rest
       | Result.Error _ as e -> e)
  in
  go none (String.split_on_char ',' str)

let to_string s =
  String.concat ","
    (List.filter_map
       (fun (k, v, dflt) ->
         if Float.equal v dflt then None else Some (Printf.sprintf "%s=%g" k v))
       [
         ("delay", s.delay_ms, 0.0);
         ("jitter", s.jitter_ms, 0.0);
         ("partial", s.partial_write, 0.0);
         ("truncate", s.truncate, 0.0);
         ("corrupt", s.corrupt, 0.0);
         ("disconnect", s.disconnect, 0.0);
         ("stall", s.stall, 0.0);
         ("eintr", float_of_int s.eintr_burst, 0.0);
       ])

(* ------------------------------------------------------------------ *)
(* Proxy state *)

type stats = {
  connections : int;
  chunks : int;
  bytes : int;
  delayed : int;
  partial_writes : int;
  truncated : int;
  corrupted : int;
  disconnected : int;
  stalled : int;
  eintr_signals : int;
}

let zero_stats =
  {
    connections = 0;
    chunks = 0;
    bytes = 0;
    delayed = 0;
    partial_writes = 0;
    truncated = 0;
    corrupted = 0;
    disconnected = 0;
    stalled = 0;
    eintr_signals = 0;
  }

type t = {
  spec : spec;
  lfd : Unix.file_descr;
  bound : Serve.address;
  upstream : Serve.address;
  cleanup : unit -> unit;
  eintr_pid : int option;
  stop_flag : bool Atomic.t;
  sm : Mutex.t; (* guards [st] and [conns] *)
  mutable st : stats;
  mutable conns : Thread.t list;
  mutable acceptor : Thread.t option;
}

let bound_addr t = t.bound
let stats t =
  Mutex.lock t.sm;
  let s = t.st in
  Mutex.unlock t.sm;
  s

let bump t f =
  Mutex.lock t.sm;
  t.st <- f t.st;
  Mutex.unlock t.sm

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Per-connection pump *)

let sockaddr_of = function
  | Serve.Unix_sock path -> Unix.ADDR_UNIX path
  | Serve.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let upstream_connect t =
  let domain =
    match t.upstream with
    | Serve.Unix_sock _ -> Unix.PF_UNIX
    | Serve.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Serve.Io.connect fd (sockaddr_of t.upstream) ~timeout:5.0 with
  | () -> Some fd
  | exception (Serve.Io.Timeout | Unix.Unix_error _) ->
    close_quiet fd;
    None

(* read one chunk from [src], run it through the fault gauntlet, and
   forward what survives to [dst] *)
let forward t rng buf ~src ~dst =
  match Serve.Io.read src buf 0 (Bytes.length buf) ~timeout:0.5 with
  | Serve.Io.Eof -> `Closed
  | Serve.Io.Read_timeout -> `Idle
  | Serve.Io.Data k ->
    bump t (fun s -> { s with chunks = s.chunks + 1; bytes = s.bytes + k });
    if Rng.float rng < t.spec.disconnect then begin
      bump t (fun s -> { s with disconnected = s.disconnected + 1 });
      `Cut
    end
    else begin
      let k, cut_after =
        if k > 1 && Rng.float rng < t.spec.truncate then begin
          bump t (fun s -> { s with truncated = s.truncated + 1 });
          (Int.max 1 (k / 2), true)
        end
        else (k, false)
      in
      if Rng.float rng < t.spec.corrupt then begin
        (* 0x01 can only break the frame, never reshape a number *)
        Bytes.set buf (Rng.int rng k) '\x01';
        bump t (fun s -> { s with corrupted = s.corrupted + 1 })
      end;
      let d =
        t.spec.delay_ms
        +. (if t.spec.jitter_ms > 0.0 then Rng.uniform rng 0.0 t.spec.jitter_ms
            else 0.0)
      in
      if d > 0.0 then begin
        bump t (fun s -> { s with delayed = s.delayed + 1 });
        Unix.sleepf (d /. 1000.0)
      end;
      (match t.eintr_pid with
       | Some pid when t.spec.eintr_burst > 0 ->
         for _ = 1 to t.spec.eintr_burst do
           try Unix.kill pid Sys.sigusr1 with Unix.Unix_error _ -> ()
         done;
         bump t (fun s ->
             { s with eintr_signals = s.eintr_signals + t.spec.eintr_burst })
       | _ -> ());
      let data = Bytes.sub_string buf 0 k in
      let send s = Serve.Io.write_all dst s ~timeout:5.0 in
      (match
         if k > 1 && Rng.float rng < t.spec.partial_write then begin
           (* dribble the chunk out in fragments: exercises mid-frame
              reassembly without starving the peer's deadline *)
           bump t (fun s -> { s with partial_writes = s.partial_writes + 1 });
           let frag = Int.max 64 (k / 16) in
           let off = ref 0 in
           while !off < k do
             let len = Int.min frag (k - !off) in
             send (String.sub data !off len);
             Unix.sleepf 0.001;
             off := !off + len
           done
         end
         else send data
       with
      | () -> if cut_after then `Cut else `Ok
      | exception (Serve.Io.Timeout | Serve.Io.Closed) -> `Closed
      | exception Unix.Unix_error _ -> `Closed)
    end

let black_hole t cfd =
  (* accept-then-stall: swallow bytes, never answer, until the peer
     hangs up or the proxy stops — a slow-loris from the server's side *)
  bump t (fun s -> { s with stalled = s.stalled + 1 });
  let buf = Bytes.create 4096 in
  let rec go () =
    if not (Atomic.get t.stop_flag) then
      match Serve.Io.read cfd buf 0 (Bytes.length buf) ~timeout:0.25 with
      | Serve.Io.Eof -> ()
      | Serve.Io.Data _ | Serve.Io.Read_timeout -> go ()
  in
  go ()

let pump t rng cfd =
  bump t (fun s -> { s with connections = s.connections + 1 });
  if Rng.float rng < t.spec.stall then begin
    black_hole t cfd;
    close_quiet cfd
  end
  else
    match upstream_connect t with
    | None -> close_quiet cfd
    | Some ufd ->
      let buf = Bytes.create 65536 in
      let rec loop () =
        if not (Atomic.get t.stop_flag) then begin
          match Unix.select [ cfd; ufd ] [] [] 0.25 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | [], _, _ -> loop ()
          | ready, _, _ ->
            let res =
              if List.mem cfd ready then forward t rng buf ~src:cfd ~dst:ufd
              else `Idle
            in
            let res =
              match res with
              | (`Ok | `Idle) when List.mem ufd ready ->
                forward t rng buf ~src:ufd ~dst:cfd
              | r -> r
            in
            (match res with
             | `Ok | `Idle -> loop ()
             | `Closed | `Cut -> ())
        end
      in
      (match loop () with
       | () -> ()
       | exception Unix.Unix_error _ -> ());
      close_quiet cfd;
      close_quiet ufd

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let acceptor_loop t seed =
  let idx = ref 0 in
  while not (Atomic.get t.stop_flag) do
    match Serve.Io.wait_readable t.lfd 0.25 with
    | `Timeout | `Interrupted -> ()
    | `Ready ->
      (match Unix.accept t.lfd with
       | exception Unix.Unix_error _ -> ()
       | cfd, _ ->
         incr idx;
         (* per-connection RNG: deterministic given the seed and the
            connection order, independent across connections *)
         let rng = Rng.create (seed + (977 * !idx)) in
         let th = Thread.create (fun () -> pump t rng cfd) () in
         Mutex.lock t.sm;
         t.conns <- th :: t.conns;
         Mutex.unlock t.sm)
  done

let start ?(seed = 1337) ?eintr_pid spec ~listen ~upstream =
  validate spec;
  (* the proxy disconnects peers mid-write by design; any process
     hosting it (bench drivers, the pathsel chaos subcommand) must
     survive the resulting EPIPEs rather than die of SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lfd, bound, cleanup = Serve.listen_on listen in
  let t =
    {
      spec;
      lfd;
      bound;
      upstream;
      cleanup;
      eintr_pid;
      stop_flag = Atomic.make false;
      sm = Mutex.create ();
      st = zero_stats;
      conns = [];
      acceptor = None;
    }
  in
  t.acceptor <- Some (Thread.create (fun () -> acceptor_loop t seed) ());
  t

let stop t =
  Atomic.set t.stop_flag true;
  (match t.acceptor with Some th -> Thread.join th | None -> ());
  let conns =
    Mutex.lock t.sm;
    let c = t.conns in
    t.conns <- [];
    Mutex.unlock t.sm;
    c
  in
  List.iter Thread.join conns;
  close_quiet t.lfd;
  t.cleanup ()

(* ------------------------------------------------------------------ *)
(* Process-level killer *)

(* The proxy above mangles bytes; this kills the whole process. Arming
   one against a server under live traffic lands the SIGKILL at a
   uniformly random point in whatever the server happens to be doing —
   mid-WAL-append, mid-fsync, between a checkpoint's temp-file write and
   its rename — which is exactly the distribution of crashes the
   durability layer claims to survive. SIGKILL is deliberate: it cannot
   be caught, so no shutdown path gets a chance to tidy up. *)
module Killer = struct
  type t = {
    delay : float; (* the drawn fire time, seconds after arm *)
    cancelled : bool Atomic.t;
    did_fire : bool Atomic.t;
    thread : Thread.t;
  }

  let arm ?(seed = 1) ~min_delay ~max_delay pid =
    if
      not
        (Float.is_finite min_delay && Float.is_finite max_delay
       && min_delay >= 0.0 && max_delay >= min_delay)
    then invalid_arg "Chaos.Killer: need 0 <= min_delay <= max_delay";
    let rng = Rng.create seed in
    let delay =
      if max_delay > min_delay then Rng.uniform rng min_delay max_delay
      else min_delay
    in
    let cancelled = Atomic.make false in
    let did_fire = Atomic.make false in
    let thread =
      Thread.create
        (fun () ->
          (* sleep in short slices so [cancel] takes effect promptly *)
          let deadline = Unix.gettimeofday () +. delay in
          let rec wait () =
            if not (Atomic.get cancelled) then begin
              let left = deadline -. Unix.gettimeofday () in
              if left > 0.0 then begin
                Unix.sleepf (Float.min left 0.01);
                wait ()
              end
              else begin
                Atomic.set did_fire true;
                try Unix.kill pid Sys.sigkill
                with Unix.Unix_error _ -> () (* already gone: still a kill point *)
              end
            end
          in
          wait ())
        ()
    in
    { delay; cancelled; did_fire; thread }

  let delay t = t.delay

  let cancel t =
    Atomic.set t.cancelled true;
    Thread.join t.thread;
    Atomic.get t.did_fire
end
