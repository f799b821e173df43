//===- persist/WarmCache.cpp - On-disk warm-start cache -------------------===//

#include "persist/WarmCache.h"

#include "fixpoint/Wto.h"
#include "persist/Serial.h"
#include "semantics/Analyzer.h"
#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sys/stat.h>
#include <unistd.h>
#include <unordered_map>

using namespace syntox;
using namespace syntox::persist;

namespace {

constexpr size_t HeaderBytes = 4 + 4 + 8 + 8 + 8 + 8;

std::string hex64(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Element keys
//===----------------------------------------------------------------------===//

/// Content key of each top-level WTO element: the hash of its sorted
/// member node keys. Stable under any reordering of unrelated elements
/// and under edits that leave the member routines' fingerprints alone.
std::vector<uint64_t> elementKeys(const Wto &Order,
                                  const std::vector<uint64_t> &NodeKeys) {
  std::vector<uint64_t> Keys;
  Keys.reserve(Order.elements().size());
  std::vector<uint64_t> MemberKeys;
  for (unsigned E = 0; E < Order.elements().size(); ++E) {
    MemberKeys.clear();
    for (unsigned V : Order.members(E))
      MemberKeys.push_back(NodeKeys[V]);
    std::sort(MemberKeys.begin(), MemberKeys.end());
    uint64_t K = fpMix(fpSeed(), MemberKeys.size());
    for (uint64_t Key : MemberKeys)
      K = fpMix(K, Key);
    Keys.push_back(K);
  }
  return Keys;
}

/// Key -> index map with duplicate poisoning: a key minted twice (e.g.
/// textually identical twin routines) is ambiguous and must not map, or
/// recorded state could be grafted onto the wrong twin.
std::unordered_map<uint64_t, unsigned>
indexByKey(const std::vector<uint64_t> &Keys) {
  constexpr unsigned Ambiguous = ~0u;
  std::unordered_map<uint64_t, unsigned> Map;
  Map.reserve(Keys.size());
  for (unsigned I = 0; I < Keys.size(); ++I) {
    auto [It, Inserted] = Map.emplace(Keys[I], I);
    if (!Inserted)
      It->second = Ambiguous;
  }
  for (auto It = Map.begin(); It != Map.end();)
    It = It->second == Ambiguous ? Map.erase(It) : std::next(It);
  return Map;
}

//===----------------------------------------------------------------------===//
// Value codec
//===----------------------------------------------------------------------===//

constexpr int64_t MinI64 = std::numeric_limits<int64_t>::min();
constexpr int64_t MaxI64 = std::numeric_limits<int64_t>::max();

/// Row codec (format v2, matching the SoA payload rows): one flags byte
/// folds the lane tag, the bool kind and the interval sentinels, so a
/// typical finite interval row is the flags byte plus two svarints and
/// a bool row is a single byte (format v1 spent a separate tag byte per
/// value and a whole byte per bool kind).
///   bit0        1 = bool lane, 0 = interval lane
///   bool lane:  bits1-2 = BoolLattice kind (Bottom/False/True/Top)
///   int lane:   bit1 = bottom, bit2 = Lo is -oo, bit3 = Hi is +oo;
///               finite bounds follow as svarints (zigzag varints);
///               bit4 (v3) = a non-top congruence component follows as
///               two svarints (M, R). Interval-domain values always
///               carry a top congruence, so their rows are
///               byte-identical to format v2.
void writeValue(ByteWriter &W, const AbsValue &V) {
  if (!V.isInt()) {
    W.u8(static_cast<uint8_t>(
        1u | (static_cast<unsigned>(V.asBool().kind()) << 1)));
    return;
  }
  const NumVal &Num = V.asNum();
  const Interval &I = Num.I;
  uint8_t Flags = 0;
  if (Num.isBottom())
    Flags |= 2;
  else {
    if (I.Lo == MinI64)
      Flags |= 4; // -oo sentinel: no bound bytes follow
    if (I.Hi == MaxI64)
      Flags |= 8; // +oo sentinel
    if (!Num.C.isTop())
      Flags |= 16; // congruence component follows
  }
  W.u8(Flags);
  if (!(Flags & 2)) {
    if (!(Flags & 4))
      W.svarint(I.Lo);
    if (!(Flags & 8))
      W.svarint(I.Hi);
    if (Flags & 16) {
      W.svarint(Num.C.M);
      W.svarint(Num.C.R);
    }
  }
}

AbsValue readValue(ByteReader &R, bool &Ok) {
  uint8_t Flags = R.u8();
  if (Flags & 1) {
    if (Flags & ~0x7u) {
      Ok = false;
      return AbsValue();
    }
    switch ((Flags >> 1) & 3u) {
    case BoolLattice::Bottom:
      return AbsValue(BoolLattice::bottom());
    case BoolLattice::False:
      return AbsValue(BoolLattice(false));
    case BoolLattice::True:
      return AbsValue(BoolLattice(true));
    default:
      return AbsValue(BoolLattice::top());
    }
  }
  if (Flags & ~0x1eu) {
    Ok = false;
    return AbsValue();
  }
  if (Flags & 2)
    return AbsValue(Interval::bottom());
  int64_t Lo = (Flags & 4) ? MinI64 : R.svarint();
  int64_t Hi = (Flags & 8) ? MaxI64 : R.svarint();
  if (!(Flags & 16))
    return AbsValue(Interval(Lo, Hi));
  int64_t M = R.svarint();
  int64_t CR = R.svarint();
  // Only canonical, non-top, non-bottom classes are ever written.
  if (M < 0 || M == 1 || (M >= 2 && (CR < 0 || CR >= M))) {
    Ok = false;
    return AbsValue();
  }
  return AbsValue(NumVal(Interval(Lo, Hi), Congruence(M, CR)));
}

//===----------------------------------------------------------------------===//
// Store pool (save side)
//===----------------------------------------------------------------------===//

/// Content-addressed pool of serialized stores. References 0 and 1 are
/// the implicit top and bottom stores; pool entries start at 2. Entries
/// are keyed by their encoded row bytes, so a store serializes once
/// however many boundary snapshots hold it and whichever payloads they
/// hold it in, and the file depends on the values alone, not on how
/// the solver happened to share payloads. A payload-identity memo in
/// front skips re-encoding a payload already seen (COW sharing makes
/// that the common case).
class StorePoolWriter {
public:
  explicit StorePoolWriter(const StableIds &Ids) : Ids(Ids) {}

  uint64_t ref(const AbstractStore &S) {
    if (S.isBottom())
      return 1;
    if (S.isTop())
      return 0;
    const void *Identity = S.payloadIdentity();
    auto It = ByPayload.find(Identity);
    if (It != ByPayload.end())
      return It->second;
    ByteWriter W;
    W.varint(S.numEntries());
    S.forEachEntry([&](const VarDecl *V, const AbsValue &Val) {
      W.varint(varIndex(V));
      writeValue(W, Val);
    });
    auto [Entry, Inserted] = ByBytes.emplace(W.buffer(), 2 + Entries.size());
    if (Inserted)
      Entries.push_back(&Entry->first);
    ByPayload.emplace(Identity, Entry->second);
    return Entry->second;
  }

  const std::vector<uint64_t> &varKeys() const { return VarKeys; }

  void writePool(ByteWriter &W) const {
    W.varint(Entries.size());
    for (const std::string *E : Entries)
      W.bytes(E->data(), E->size());
  }

private:
  uint64_t varIndex(const VarDecl *V) {
    auto [It, Inserted] = VarIdx.emplace(V, VarKeys.size());
    if (Inserted)
      VarKeys.push_back(Ids.varKey(V));
    return It->second;
  }

  const StableIds &Ids;
  std::unordered_map<const VarDecl *, uint64_t> VarIdx;
  std::vector<uint64_t> VarKeys;
  std::unordered_map<const void *, uint64_t> ByPayload;
  std::unordered_map<std::string, uint64_t> ByBytes;
  /// The keys of ByBytes in reference order (node keys never move).
  std::vector<const std::string *> Entries;
};

//===----------------------------------------------------------------------===//
// Store pool (load side)
//===----------------------------------------------------------------------===//

/// The deserialized pool: one reconstructed store per entry, plus a
/// validity bit — an entry mentioning a variable key with no
/// counterpart in the current program (or an ambiguous one) cannot be
/// reconstructed and poisons everything referencing it.
struct StorePoolReader {
  std::vector<AbstractStore> Stores; ///< index = ref
  std::vector<uint8_t> Valid;

  bool parse(ByteReader &R, const std::vector<const VarDecl *> &Vars,
             DomainKind DK) {
    uint64_t Count = R.varint();
    if (R.failed() || Count > R.remaining())
      return false;
    Stores.reserve(2 + Count);
    Valid.reserve(2 + Count);
    Stores.push_back(AbstractStore::top());
    Valid.push_back(1);
    Stores.push_back(AbstractStore::bottom());
    Valid.push_back(1);
    for (uint64_t I = 0; I < Count; ++I) {
      uint64_t NumEntries = R.varint();
      if (R.failed() || NumEntries > R.remaining())
        return false;
      AbstractStore S;
      bool Ok = true;
      for (uint64_t E = 0; E < NumEntries; ++E) {
        uint64_t VarIdx = R.varint();
        AbsValue Val = readValue(R, Ok);
        if (R.failed())
          return false;
        const VarDecl *V =
            VarIdx < Vars.size() ? Vars[VarIdx] : nullptr;
        if (!V) {
          Ok = false;
          continue;
        }
        if (Ok)
          S.set(V, Val, DK);
      }
      Stores.push_back(Ok ? std::move(S) : AbstractStore::top());
      Valid.push_back(Ok);
    }
    return true;
  }

  bool valid(uint64_t Ref) const {
    return Ref < Valid.size() && Valid[Ref];
  }
  const AbstractStore &store(uint64_t Ref) const { return Stores[Ref]; }
};

void writeKeyTable(ByteWriter &W, const std::vector<uint64_t> &Keys) {
  W.varint(Keys.size());
  for (uint64_t K : Keys)
    W.u64(K);
}

std::vector<uint64_t> readKeyTable(ByteReader &R) {
  uint64_t Count = R.varint();
  if (R.failed() || Count > R.remaining() / 8 + 1)
    return {};
  std::vector<uint64_t> Keys;
  Keys.reserve(Count);
  for (uint64_t I = 0; I < Count; ++I)
    Keys.push_back(R.u64());
  return Keys;
}

bool isForwardSig(Analyzer::PhaseSig Sig) {
  return Sig == Analyzer::PhaseSig::FwdNoEnv ||
         Sig == Analyzer::PhaseSig::FwdEnv;
}

/// Writes \p Data to a fresh temp file next to \p Path and renames it
/// into place. The temp name is unique to this save (pid plus a
/// per-process counter, created O_EXCL), so concurrent saves of one
/// file never write through each other's temp inode. Returns an error
/// message, empty on success.
std::string writeFileAtomically(const std::string &Path,
                                const std::string &Data) {
  static std::atomic<uint64_t> Serial{0};
  char Suffix[64];
  std::snprintf(Suffix, sizeof(Suffix), ".%ld.%llu.tmp",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(Serial.fetch_add(1)));
  std::string Tmp = Path + Suffix;
  auto Failure = [&Tmp](const char *What, int Errno) {
    return What + Tmp + ": " + std::strerror(Errno);
  };
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                  0666);
  if (Fd < 0)
    return Failure("cannot open cache file for writing: ", errno);
  std::string Error;
  for (size_t Off = 0; Off < Data.size();) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) {
      Error = Failure("write failed: ", errno);
      break;
    }
    Off += static_cast<size_t>(N);
  }
  if (::close(Fd) != 0 && Error.empty())
    Error = Failure("write failed: ", errno);
  if (Error.empty() && ::rename(Tmp.c_str(), Path.c_str()) != 0)
    Error = Failure("cannot move cache file into place: ", errno);
  if (!Error.empty())
    ::unlink(Tmp.c_str());
  return Error;
}

} // namespace

std::string persist::cacheFilePath(const std::string &Dir,
                                   const AnalysisOptions &Opts) {
  std::filesystem::path P(Dir);
  char Name[64];
  std::snprintf(Name, sizeof(Name), "syntox-%016llx.warm",
                static_cast<unsigned long long>(Opts.optionsHash()));
  return (P / Name).string();
}

//===----------------------------------------------------------------------===//
// Save
//===----------------------------------------------------------------------===//

bool persist::saveWarmCache(const std::string &Dir, const Analyzer &An,
                            std::string *ErrorOut) {
  auto Fail = [&](const std::string &Why) {
    if (ErrorOut)
      *ErrorOut = Why;
    return false;
  };
  const AnalysisOptions &Opts = An.options();
  if (!Opts.WarmStart)
    return Fail("warm start disabled: nothing to persist");
  const std::vector<Analyzer::WarmSlot> &Slots = An.chainSlots();
  bool AnyValid = false;
  for (const Analyzer::WarmSlot &S : Slots)
    AnyValid |= S.Memo.Valid;
  if (!AnyValid)
    return Fail("no recorded run to persist");

  const SuperGraph &G = An.graph();
  const StableIds &Ids = G.stableIds();
  unsigned N = G.numNodes();

  std::vector<uint64_t> FwdElemKeys =
      elementKeys(An.forwardOrder(), Ids.nodeKeys());
  std::vector<uint64_t> BwdElemKeys =
      elementKeys(An.backwardOrder(), Ids.nodeKeys());

  StorePoolWriter Pool(Ids);

  // Slots and edge memos are serialized first (into side buffers) so
  // the pool they populate can be emitted ahead of them in the body.
  ByteWriter SlotsW;
  uint64_t SavedSlots = 0;
  SlotsW.varint(Slots.size());
  for (const Analyzer::WarmSlot &Slot : Slots) {
    const WarmStartMemo<AbstractStore> &M = Slot.Memo;
    size_t NumElems =
        isForwardSig(Slot.Sig) ? FwdElemKeys.size() : BwdElemKeys.size();
    bool Ok = M.Valid && M.NumNodes == N && !M.Boundaries.empty() &&
              M.ElemChanged.size() == M.Boundaries.size() &&
              M.ElemSteps.size() == M.Boundaries.size() &&
              M.ElemChanged.front().size() == NumElems &&
              (M.NodeValid.empty() || M.NodeValid.size() == N) &&
              (M.ElemReplayable.empty() ||
               M.ElemReplayable.size() == NumElems);
    for (const std::vector<AbstractStore> &B : M.Boundaries)
      Ok &= B.size() == N;
    SlotsW.u8(Ok);
    if (!Ok)
      continue;
    ++SavedSlots;
    SlotsW.u8(static_cast<uint8_t>(Slot.Sig));
    SlotsW.u8(Slot.HadEnv);
    SlotsW.u8(static_cast<uint8_t>(M.Kind));
    SlotsW.u8(0); // the retired iteration-strategy byte (format v3)
    SlotsW.varint(M.Boundaries.size());
    for (size_t B = 0; B < M.Boundaries.size(); ++B) {
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(M.Boundaries[B][V]));
      for (size_t E = 0; E < NumElems; ++E)
        SlotsW.u8(M.ElemChanged[B][E]);
      for (size_t E = 0; E < NumElems; ++E)
        SlotsW.varint(M.ElemSteps[B][E]);
    }
    SlotsW.u8(!M.NodeValid.empty());
    for (uint8_t Bit : M.NodeValid)
      SlotsW.u8(Bit);
    SlotsW.u8(!M.ElemReplayable.empty());
    for (uint8_t Bit : M.ElemReplayable)
      SlotsW.u8(Bit);
    bool HasEnv = Slot.Env.size() == N;
    SlotsW.u8(HasEnv);
    if (HasEnv)
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(Slot.Env[V]));
    bool HasSeeds = Slot.Seeds.size() == N;
    SlotsW.u8(HasSeeds);
    if (HasSeeds)
      for (unsigned V = 0; V < N; ++V)
        SlotsW.varint(Pool.ref(Slot.Seeds[V]));
  }

  ByteWriter EdgesW;
  uint64_t SavedMemos = 0;
  {
    ByteWriter Records;
    const auto &Memos = G.edgeMemos();
    for (unsigned E = 0; E < Memos.size(); ++E)
      for (unsigned Dir = 0; Dir < 2; ++Dir) {
        const LinkTransferMemo &M = Memos[E][Dir];
        if (!M.Valid)
          continue;
        ++SavedMemos;
        Records.u64(Ids.edgeKey(E));
        Records.u8(static_cast<uint8_t>(Dir));
        Records.varint(Pool.ref(M.In1));
        Records.varint(Pool.ref(M.In2));
        Records.varint(Pool.ref(M.Out));
      }
    EdgesW.varint(SavedMemos);
    EdgesW.append(Records);
  }

  // Body: key tables, pool, slots, edge memos — in that order, so the
  // reader has every table it needs before the data referencing it.
  ByteWriter Body;
  writeKeyTable(Body, Pool.varKeys());
  writeKeyTable(Body, Ids.nodeKeys());
  writeKeyTable(Body, FwdElemKeys);
  writeKeyTable(Body, BwdElemKeys);
  Pool.writePool(Body);
  Body.append(SlotsW);
  Body.append(EdgesW);

  uint64_t Checksum = fnv1a(Body.buffer().data(), Body.size());
  ByteWriter File;
  File.bytes(CacheMagic, 4);
  File.u32(CacheFormatVersion);
  File.u64(Opts.optionsHash());
  File.u64(Ids.supergraphHash());
  File.u64(Body.size());
  File.u64(Checksum);
  File.append(Body);

  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC)
    return Fail("cannot create cache directory: " + EC.message());
  std::string Path = cacheFilePath(Dir, Opts);
  // Write-then-rename so a crash mid-save leaves the old file intact.
  if (std::string Error = writeFileAtomically(Path, File.buffer());
      !Error.empty())
    return Fail(Error);

  json::Value Meta = json::Value::object();
  Meta.set("magic", json::Value("SYXC"));
  Meta.set("version", json::Value(static_cast<int64_t>(CacheFormatVersion)));
  Meta.set("options_hash", json::Value(hex64(Opts.optionsHash())));
  Meta.set("supergraph_hash", json::Value(hex64(Ids.supergraphHash())));
  Meta.set("body_len", json::Value(static_cast<int64_t>(Body.size())));
  Meta.set("body_checksum", json::Value(hex64(Checksum)));
  Meta.set("num_nodes", json::Value(static_cast<int64_t>(N)));
  Meta.set("slots", json::Value(static_cast<int64_t>(SavedSlots)));
  Meta.set("edge_memos", json::Value(static_cast<int64_t>(SavedMemos)));
  std::ofstream MetaOut(Path + ".meta.json", std::ios::trunc);
  if (MetaOut)
    MetaOut << Meta.pretty() << "\n";
  return true;
}

bool persist::touchWarmCache(const std::string &Dir,
                             const AnalysisOptions &Opts) {
  std::string Path = cacheFilePath(Dir, Opts);
  struct stat Before, After;
  if (::stat(Path.c_str(), &Before) != 0 || !S_ISREG(Before.st_mode))
    return false;
  // UTIME_NOW stamps the file clock a write would. That clock ticks
  // coarsely, so within one tick step 1 ns past the old mtime instead:
  // the index must see the entry change.
  if (::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0) != 0 ||
      ::stat(Path.c_str(), &After) != 0)
    return false;
  auto Ns = [](const struct timespec &T) {
    return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
  };
  if (Ns(After.st_mtim) > Ns(Before.st_mtim))
    return true;
  int64_t Next = Ns(Before.st_mtim) + 1;
  struct timespec Times[2];
  Times[0].tv_sec = 0;
  Times[0].tv_nsec = UTIME_OMIT;
  Times[1].tv_sec = static_cast<time_t>(Next / 1000000000);
  Times[1].tv_nsec = static_cast<long>(Next % 1000000000);
  return ::utimensat(AT_FDCWD, Path.c_str(), Times, 0) == 0;
}

//===----------------------------------------------------------------------===//
// Load
//===----------------------------------------------------------------------===//

CacheLoadResult persist::loadWarmCache(const std::string &Dir,
                                       Analyzer &An) {
  CacheLoadResult Res;
  auto Fallback = [&](const std::string &Why) {
    Res = CacheLoadResult();
    Res.FallbackReason = Why;
    return Res;
  };
  const AnalysisOptions &Opts = An.options();
  if (!Opts.WarmStart)
    return Fallback("warm start disabled");

  std::string Path = cacheFilePath(Dir, Opts);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Fallback("no cache file");
  std::string Data((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  if (Data.size() < HeaderBytes)
    return Fallback("truncated header");

  if (std::memcmp(Data.data(), CacheMagic, 4) != 0)
    return Fallback("bad magic");
  ByteReader Header(Data.data() + 4, HeaderBytes - 4);
  if (Header.u32() != CacheFormatVersion)
    return Fallback("format version mismatch");
  if (Header.u64() != Opts.optionsHash())
    return Fallback("options mismatch");
  Header.u64(); // recorded supergraph hash: informational only
  uint64_t BodyLen = Header.u64();
  uint64_t Checksum = Header.u64();
  if (Data.size() - HeaderBytes != BodyLen)
    return Fallback("truncated body");
  if (fnv1a(Data.data() + HeaderBytes, BodyLen) != Checksum)
    return Fallback("checksum mismatch");

  const SuperGraph &G = An.graph();
  const StableIds &Ids = G.stableIds();
  unsigned NNew = G.numNodes();

  ByteReader R(Data.data() + HeaderBytes, BodyLen);
  std::vector<uint64_t> VarKeyTable = readKeyTable(R);
  std::vector<uint64_t> RecNodeKeys = readKeyTable(R);
  std::vector<uint64_t> RecFwdElemKeys = readKeyTable(R);
  std::vector<uint64_t> RecBwdElemKeys = readKeyTable(R);
  if (R.failed())
    return Fallback("malformed key tables");

  // Var table -> current VarDecls (null for keys with no counterpart).
  std::vector<const VarDecl *> Vars;
  Vars.reserve(VarKeyTable.size());
  for (uint64_t K : VarKeyTable)
    Vars.push_back(Ids.varForKey(K));

  StorePoolReader Pool;
  if (!Pool.parse(R, Vars, Opts.Domain) || R.failed())
    return Fallback("malformed store pool");

  // Recorded node index -> current node index (or -1): the heart of
  // edit-aware invalidation. Duplicate keys on either side are
  // ambiguous and stay unmapped.
  unsigned NRec = static_cast<unsigned>(RecNodeKeys.size());
  std::unordered_map<uint64_t, unsigned> RecNodeByKey =
      indexByKey(RecNodeKeys);
  std::vector<int64_t> RecOfNew(NNew, -1);
  {
    std::unordered_map<uint64_t, unsigned> NewNodeByKey =
        indexByKey(Ids.nodeKeys());
    for (unsigned I = 0; I < NNew; ++I) {
      auto It = NewNodeByKey.find(Ids.nodeKey(I));
      if (It == NewNodeByKey.end() || It->second != I)
        continue; // current-side duplicate: ambiguous
      auto Rec = RecNodeByKey.find(Ids.nodeKey(I));
      if (Rec != RecNodeByKey.end())
        RecOfNew[I] = Rec->second;
    }
  }
  for (unsigned I = 0; I < NNew; ++I)
    RecOfNew[I] >= 0 ? ++Res.RestoredNodes : ++Res.InvalidatedNodes;

  // Current WTO element keys per system, and the recorded-key lookup.
  std::vector<uint64_t> FwdElemKeys =
      elementKeys(An.forwardOrder(), Ids.nodeKeys());
  std::vector<uint64_t> BwdElemKeys =
      elementKeys(An.backwardOrder(), Ids.nodeKeys());
  std::unordered_map<uint64_t, unsigned> RecFwdByKey =
      indexByKey(RecFwdElemKeys);
  std::unordered_map<uint64_t, unsigned> RecBwdByKey =
      indexByKey(RecBwdElemKeys);

  uint64_t NumSlots = R.varint();
  if (R.failed() || NumSlots > 1024)
    return Fallback("malformed slot count");
  std::vector<Analyzer::WarmSlot> NewSlots;
  for (uint64_t SlotIdx = 0; SlotIdx < NumSlots; ++SlotIdx) {
    uint8_t Valid = R.u8();
    NewSlots.emplace_back();
    Analyzer::WarmSlot &Slot = NewSlots.back();
    if (!Valid)
      continue;
    uint8_t SigByte = R.u8();
    if (SigByte > static_cast<uint8_t>(Analyzer::PhaseSig::Eventually))
      return Fallback("malformed slot signature");
    Slot.Sig = static_cast<Analyzer::PhaseSig>(SigByte);
    Slot.HadEnv = R.u8() != 0;
    bool Fwd = isForwardSig(Slot.Sig);
    // The signature fixes the slot's fixpoint kind under these options,
    // and the kind bounds the sweeps the recorded solve could take.
    WarmStartMemo<AbstractStore> &M = Slot.Memo;
    bool Gfp = Slot.Sig == Analyzer::PhaseSig::Always ||
               (Fwd && Opts.HarrisonGfp);
    M.Kind = Gfp ? FixpointKind::Gfp : FixpointKind::Lfp;
    if (R.u8() != static_cast<uint8_t>(M.Kind))
      return Fallback("slot kind mismatch");
    uint64_t MaxBoundaries =
        Gfp ? MaxGfpSweeps : 1 + uint64_t(Opts.NarrowingPasses);
    // The retired iteration-strategy byte: every file this format
    // describes holds 0 (the recursive strategy, now the only one).
    if (R.u8() != 0)
      return Fallback("malformed slot");
    M.NumNodes = NNew;

    const std::vector<uint64_t> &NewElemKeys =
        Fwd ? FwdElemKeys : BwdElemKeys;
    const std::unordered_map<uint64_t, unsigned> &RecElemByKey =
        Fwd ? RecFwdByKey : RecBwdByKey;
    size_t ERec = Fwd ? RecFwdElemKeys.size() : RecBwdElemKeys.size();
    size_t ENew = NewElemKeys.size();

    // The rows are allocated per boundary in both index spaces, so the
    // count is checked first: against the sweeps the recorded solve
    // could take, and against the body, since each row takes at least
    // one byte per recorded node and two per element.
    uint64_t NumBoundaries = R.varint();
    uint64_t RowBytes = NRec + 2 * ERec;
    if (R.failed() || NumBoundaries == 0 || NumBoundaries > MaxBoundaries ||
        NumBoundaries > 100000 || NumBoundaries * RowBytes > R.remaining())
      return Fallback("malformed boundary count");

    // Per-boundary recorded refs and rows, in *recorded* index space.
    std::vector<std::vector<uint64_t>> Refs(
        NumBoundaries, std::vector<uint64_t>(NRec));
    std::vector<std::vector<uint8_t>> RecChanged(
        NumBoundaries, std::vector<uint8_t>(ERec));
    std::vector<std::vector<uint64_t>> RecSteps(
        NumBoundaries, std::vector<uint64_t>(ERec));
    for (uint64_t B = 0; B < NumBoundaries; ++B) {
      for (unsigned V = 0; V < NRec; ++V)
        Refs[B][V] = R.varint();
      for (size_t E = 0; E < ERec; ++E)
        RecChanged[B][E] = R.u8();
      for (size_t E = 0; E < ERec; ++E)
        RecSteps[B][E] = R.varint();
    }
    std::vector<uint8_t> RecNodeValid;
    if (R.u8())
      for (unsigned V = 0; V < NRec; ++V)
        RecNodeValid.push_back(R.u8());
    std::vector<uint8_t> RecElemReplayable;
    if (R.u8())
      for (size_t E = 0; E < ERec; ++E)
        RecElemReplayable.push_back(R.u8());
    std::vector<uint64_t> EnvRefs, SeedRefs;
    if (R.u8())
      for (unsigned V = 0; V < NRec; ++V)
        EnvRefs.push_back(R.varint());
    if (R.u8())
      for (unsigned V = 0; V < NRec; ++V)
        SeedRefs.push_back(R.varint());
    if (R.failed())
      return Fallback("malformed slot body");
    for (const std::vector<uint64_t> &Row : Refs)
      for (uint64_t Ref : Row)
        if (Ref >= Pool.Stores.size())
          return Fallback("dangling store reference");

    // Remap into the current graph: values by node key, rows by
    // element key, placeholders (masked invalid) everywhere else.
    std::vector<uint8_t> NodeValid(NNew, 1);
    for (unsigned I = 0; I < NNew; ++I) {
      int64_t J = RecOfNew[I];
      if (J < 0 ||
          (!RecNodeValid.empty() && !RecNodeValid[J])) {
        NodeValid[I] = 0;
        continue;
      }
      for (uint64_t B = 0; B < NumBoundaries && NodeValid[I]; ++B)
        if (!Pool.valid(Refs[B][J]))
          NodeValid[I] = 0;
    }
    M.Boundaries.assign(NumBoundaries,
                        std::vector<AbstractStore>(NNew));
    for (uint64_t B = 0; B < NumBoundaries; ++B)
      for (unsigned I = 0; I < NNew; ++I)
        if (NodeValid[I])
          M.Boundaries[B][I] = Pool.store(Refs[B][RecOfNew[I]]);

    std::vector<uint8_t> ElemReplayable(ENew, 0);
    M.ElemChanged.assign(NumBoundaries, std::vector<uint8_t>(ENew, 1));
    M.ElemSteps.assign(NumBoundaries, std::vector<uint64_t>(ENew, 0));
    for (size_t E = 0; E < ENew; ++E) {
      auto It = RecElemByKey.find(NewElemKeys[E]);
      if (It == RecElemByKey.end())
        continue;
      unsigned RE = It->second;
      if (!RecElemReplayable.empty() && !RecElemReplayable[RE])
        continue;
      ElemReplayable[E] = 1;
      ++Res.MatchedElements;
      for (uint64_t B = 0; B < NumBoundaries; ++B) {
        M.ElemChanged[B][E] = RecChanged[B][RE];
        M.ElemSteps[B][E] = RecSteps[B][RE];
      }
    }
    Res.UnmatchedElements +=
        ENew - static_cast<size_t>(
                   std::count(ElemReplayable.begin(),
                              ElemReplayable.end(), uint8_t(1)));

    // Empty masks mean "all valid" to the solver; only keep them when
    // something is actually masked.
    if (std::count(NodeValid.begin(), NodeValid.end(), uint8_t(1)) !=
        static_cast<long>(NNew))
      M.NodeValid = std::move(NodeValid);
    if (std::count(ElemReplayable.begin(), ElemReplayable.end(),
                   uint8_t(1)) != static_cast<long>(ENew))
      M.ElemReplayable = std::move(ElemReplayable);

    // Recorded envelope/seeds, for the external-input dirtiness check.
    // Placeholder tops at unmatched nodes are harmless: those nodes are
    // invalid, so their elements never replay regardless.
    auto Remap = [&](const std::vector<uint64_t> &SrcRefs,
                     std::vector<AbstractStore> &Out) {
      if (SrcRefs.empty())
        return;
      Out.assign(NNew, AbstractStore());
      for (unsigned I = 0; I < NNew; ++I) {
        int64_t J = RecOfNew[I];
        if (J >= 0 && SrcRefs[J] < Pool.Stores.size() &&
            Pool.valid(SrcRefs[J]))
          Out[I] = Pool.store(SrcRefs[J]);
      }
    };
    Remap(EnvRefs, Slot.Env);
    Remap(SeedRefs, Slot.Seeds);
    M.Valid = true;
    ++Res.Slots;
  }

  uint64_t NumMemos = R.varint();
  if (R.failed())
    return Fallback("malformed edge memo count");
  std::unordered_map<uint64_t, unsigned> NewEdgeByKey =
      indexByKey(Ids.edgeKeys());
  for (uint64_t I = 0; I < NumMemos; ++I) {
    uint64_t Key = R.u64();
    uint8_t Dir = R.u8();
    uint64_t In1 = R.varint();
    uint64_t In2 = R.varint();
    uint64_t Out = R.varint();
    if (R.failed() || Dir > 1)
      return Fallback("malformed edge memo");
    auto It = NewEdgeByKey.find(Key);
    if (It == NewEdgeByKey.end() || !Pool.valid(In1) ||
        !Pool.valid(In2) || !Pool.valid(Out))
      continue;
    if (G.transferMemoEnabled()) {
      LinkTransferMemo M;
      M.Valid = true;
      M.In1 = Pool.store(In1);
      M.In2 = Pool.store(In2);
      M.Out = Pool.store(Out);
      An.importEdgeMemo(It->second, Dir, std::move(M));
      ++Res.RestoredEdgeMemos;
    }
  }
  if (!R.atEnd())
    return Fallback("trailing bytes");

  if (Res.Slots == 0)
    return Fallback("no usable slots in cache");
  An.importChainSlots(std::move(NewSlots));
  Res.Loaded = true;
  return Res;
}
