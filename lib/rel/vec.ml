type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

(* Storage cannot be preallocated without a witness element, so [capacity]
   is advisory; the array is allocated on first push. *)
let create ?capacity () =
  ignore capacity;
  { data = [||]; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then None
  else begin
    v.len <- v.len - 1;
    Some v.data.(v.len)
  end

let clear v = v.len <- 0

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_array v = Array.sub v.data 0 v.len
let copy v = { data = to_array v; len = v.len }

let map f v =
  let out = { data = [||]; len = 0 } in
  iter (fun x -> push out (f x)) v;
  out

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_list v = Array.to_list (to_array v)

let of_array a = { data = Array.copy a; len = Array.length a }
let of_list l = of_array (Array.of_list l)

let sort cmp v =
  let a = to_array v in
  Array.sort cmp a;
  Array.blit a 0 v.data 0 v.len

let append dst src = iter (push dst) src
