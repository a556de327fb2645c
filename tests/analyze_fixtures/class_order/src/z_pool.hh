#ifndef CRNET_Z_POOL_HH
#define CRNET_Z_POOL_HH

namespace fx {

class Pool
{
  public:
    void
    push(int v)
    {
        int* p = new int(v);
        delete p;
    }
};

} // namespace fx

#endif // CRNET_Z_POOL_HH
