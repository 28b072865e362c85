(* Timeout-wrapped socket primitives.

   Every read, write and connect the serving and chaos layers perform
   goes through this module: each call carries an explicit wall-clock
   budget, so no peer — slow, stalled or malicious — can pin a thread on
   a bare blocking syscall. The pathsel-lint rule [no-unbounded-io]
   enforces the routing: a raw Unix.read/write/connect anywhere else
   under lib/serve/ or lib/chaos/ is a lint error, and this file is the
   single allowlisted home for them.

   [wait_readable]/[wait_writable] are the fixed version of the old
   [Serve.readable]: they report `Timeout and `Interrupted (EINTR) as
   distinct outcomes instead of collapsing both to [false], which is
   what let a deadline expiry silently re-loop. *)

exception Timeout
(* the wall-clock budget expired before the operation completed *)

exception Closed
(* the peer is gone: zero-byte write, EPIPE or ECONNRESET *)

type readiness = [ `Ready | `Timeout | `Interrupted ]

let wait_readable fd timeout : readiness =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> `Timeout
  | _ -> `Ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Interrupted

let wait_writable fd timeout : readiness =
  match Unix.select [] [ fd ] [] timeout with
  | _, [], _ -> `Timeout
  | _ -> `Ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Interrupted

let now () = Unix.gettimeofday ()

(* remaining budget; clamped at 0 because a negative select timeout
   means "block forever", the one thing this module exists to prevent *)
let remaining deadline = Float.max 0.0 (deadline -. now ())

type read_result = Data of int | Eof | Read_timeout

(* One chunk read with a deadline. EINTR and spurious wakeups re-wait
   on the remaining budget; a reset peer reads as [Eof] (the connection
   is equally gone either way). *)
let read fd buf ofs len ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match wait_readable fd (remaining deadline) with
    | `Timeout -> Read_timeout
    | `Interrupted -> if now () >= deadline then Read_timeout else go ()
    | `Ready -> (
      match Unix.read fd buf ofs len with
      | 0 -> Eof
      | k -> Data k
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        if now () >= deadline then Read_timeout else go ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Eof)
  in
  go ()

(* Write bytes [ofs, ofs + len) of a buffer through [write], or raise:
   [Timeout] when the budget runs out mid-write (slow-loris reader),
   [Closed] when the peer is gone. *)
let write_range write fd ofs len ~timeout =
  let deadline = now () +. timeout in
  let stop = ofs + len in
  let off = ref ofs in
  while !off < stop do
    match wait_writable fd (remaining deadline) with
    | `Timeout -> raise Timeout
    | `Interrupted -> if now () >= deadline then raise Timeout
    | `Ready -> (
      match write fd !off (stop - !off) with
      | 0 -> raise Closed
      | k -> off := !off + k
      | exception
          Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
        ->
        if now () >= deadline then raise Timeout
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        raise Closed)
  done

let write_all fd s ~timeout =
  write_range (fun fd o n -> Unix.write_substring fd s o n) fd 0 (String.length s) ~timeout

let write_bytes fd b ofs len ~timeout =
  if ofs < 0 || len < 0 || ofs + len > Bytes.length b then
    invalid_arg "Io.write_bytes: bad range";
  write_range (fun fd o n -> Unix.write fd b o n) fd ofs len ~timeout

(* Non-blocking connect with a deadline; the fd is returned to blocking
   mode (the wrappers above carry their own budgets via select).
   EAGAIN — a Unix-domain listen backlog at capacity — is re-raised for
   the caller's retry policy rather than waited on: select would report
   writability without an established connection. *)
let connect fd sa ~timeout =
  Unix.set_nonblock fd;
  let deadline = now () +. timeout in
  let finish () = Unix.clear_nonblock fd in
  let rec await () =
    match wait_writable fd (remaining deadline) with
    | `Timeout ->
      finish ();
      raise Timeout
    | `Interrupted -> if now () >= deadline then (finish (); raise Timeout) else await ()
    | `Ready -> (
      match Unix.getsockopt_error fd with
      | None -> finish ()
      | Some err ->
        finish ();
        raise (Unix.Unix_error (err, "connect", "")))
  in
  match Unix.connect fd sa with
  | () -> finish ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EINTR), _, _) -> await ()
  | exception e ->
    finish ();
    raise e
